"""End-to-end tests for the binary asyncio server and batched client.

These drive a live ``ThreadedBinaryServer`` over real sockets — the same
path ``opaq serve`` (default protocol) uses — and pin the error
discipline: application errors keep the connection alive; framing errors
answer with an error frame and then close it; and a hostile peer can
never wedge the server for other connections.

Two bit-identity gates hold the wire to the service it frames: a warm
restart over the binary wire serves byte-identical quantile vectors, and
keyed answers over the wire equal the registry's own in every field.
"""

import asyncio
import errno
import gc
import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigError, DataError, EstimationError, ServiceError
from repro.service import (
    QuantileService,
    ServiceClient,
    ServiceConfig,
    ThreadedBinaryServer,
)
from repro.service import proto
from repro.service.tenancy import compose_key
from repro.service.tenancy import store as store_module
from tests.service.test_proto import wire_fields

PHI_GRID = [0.1, 0.25, 0.5, 0.75, 0.9]


@pytest.fixture
def served():
    """A live binary server (port 0 → free port) plus a matching client."""
    config = ServiceConfig(num_shards=2, run_size=1_000, sample_size=50)
    service = QuantileService(config)
    server = ThreadedBinaryServer(service, port=0)
    server.start()
    client = ServiceClient(server.url, timeout=10.0)
    try:
        yield service, server, client
    finally:
        client.close()
        server.stop()
        service.close(final_snapshot=False)


def connect(server):
    host, port = server.url.removeprefix("opaq://").rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def raw_exchange(server, payload_bytes, read_frames=1):
    """Open a raw socket, send arbitrary bytes, read up to ``read_frames``
    reply frames (or until EOF).  Returns (frames, eof_seen)."""
    frames, eof = [], False
    with connect(server) as sock:
        sock.sendall(payload_bytes)
        sock.shutdown(socket.SHUT_WR)
        buf = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                eof = True
                break
            buf += chunk
        while len(buf) >= proto.HEADER.size and len(frames) < read_frames:
            opcode, length = proto.parse_header(buf[: proto.HEADER.size])
            total = proto.HEADER.size + length
            frames.append((opcode, buf[proto.HEADER.size : total]))
            buf = buf[total:]
    return frames, eof


class TestBinaryEndToEnd:
    def test_health_ping(self, served):
        _, _, client = served
        assert client.health() is True

    def test_ingest_snapshot_quantiles_roundtrip(self, served, rng):
        _, _, client = served
        data = rng.normal(size=50_000)
        receipt = client.ingest(data)
        assert receipt["accepted"] == 50_000
        snapshot = client.snapshot()
        assert snapshot["epoch"] == 1 and snapshot["count"] == 50_000

        vec = client.quantiles(PHI_GRID)
        assert vec.epoch == 1 and vec.count == 50_000
        sorted_data = np.sort(data)
        for i in range(len(PHI_GRID)):
            true = sorted_data[vec.ranks[i] - 1]
            assert vec.lower[i] <= true <= vec.upper[i]

    def test_stats_carries_both_guarantee_levels(self, served, rng):
        _, _, client = served
        client.ingest(rng.uniform(size=8_000))
        client.snapshot()
        stats = client.stats()
        assert stats["accepted"] == 8_000
        assert len(stats["per_shard"]) == 2
        assert all(s["guarantee"] >= 1 for s in stats["per_shard"])

    def test_pipelined_quantiles_many(self, served, rng):
        _, _, client = served
        client.ingest(rng.uniform(size=10_000))
        client.snapshot()
        vecs = client.quantiles_many([PHI_GRID] * 4)
        assert len(vecs) == 4
        ref = vecs[0]
        for vec in vecs[1:]:
            assert vec.lower.tobytes() == ref.lower.tobytes()
            assert vec.upper.tobytes() == ref.upper.tobytes()

    def test_v1_spellings_removed_after_deprecation_cycle(self, served, rng):
        """Scalar ingest(x) and quantile() completed their deprecation
        cycle: scalars are rejected as data errors, the alias is gone."""
        _, _, client = served
        with pytest.raises(DataError, match="scalar ingest"):
            client.ingest(1.5)
        assert not hasattr(client, "quantile")
        client.ingest(rng.uniform(size=5_000))
        client.snapshot()
        answer = client.quantiles([0.5]).to_dict()
        assert [r["phi"] for r in answer["results"]] == [0.5]


class TestErrorDiscipline:
    def test_app_error_keeps_connection_alive(self, served, rng):
        """A bad φ is the *application's* problem: typed error to the
        client, connection stays usable for the next request."""
        _, _, client = served
        client.ingest(rng.uniform(size=2_000))
        client.snapshot()
        with pytest.raises(EstimationError, match="phi"):
            client.quantiles([1.5])
        # Same socket still answers.
        vec = client.quantiles([0.5])
        assert vec.count == 2_000

    def test_query_before_epoch_is_typed(self, served):
        _, _, client = served
        with pytest.raises(EstimationError, match="no epoch"):
            client.quantiles([0.5])

    def test_nan_ingest_is_typed_and_connection_survives(self, served):
        _, _, client = served
        with pytest.raises(DataError, match="NaN"):
            client.ingest(np.array([1.0, np.nan]))
        assert client.health() is True

    def test_junk_bytes_get_error_frame_then_close(self, served):
        _, server, _ = served
        frames, eof = raw_exchange(server, b"GET / HTTP/1.1\r\n\r\n" * 2)
        assert eof
        assert len(frames) == 1
        opcode, payload = frames[0]
        assert opcode == proto.ERROR_OP
        assert json.loads(payload)["kind"] == "data"

    def test_version_skew_reported_then_close(self, served):
        _, server, _ = served
        v1 = proto.HEADER.pack(proto.MAGIC, 1, proto.Op.PING, 0, 0)
        frames, eof = raw_exchange(server, v1)
        assert eof and frames[0][0] == proto.ERROR_OP
        assert b"version skew" in frames[0][1]

    def test_oversized_length_reported_then_close(self, served):
        _, server, _ = served
        huge = proto.HEADER.pack(
            proto.MAGIC, proto.WIRE_VERSION, proto.Op.INGEST, 0, 1 << 31
        )
        frames, eof = raw_exchange(server, huge)
        assert eof and frames[0][0] == proto.ERROR_OP

    def test_truncated_frame_never_hangs(self, served):
        """A frame that promises more payload than it delivers must end in
        a "mid-frame" error frame and a close at EOF, not a hang."""
        _, server, _ = served
        header = proto.HEADER.pack(
            proto.MAGIC, proto.WIRE_VERSION, proto.Op.INGEST, 0, 1024
        )
        frames, eof = raw_exchange(server, header + b"short")
        assert eof
        assert frames and frames[0][0] == proto.ERROR_OP
        assert b"mid-frame" in frames[0][1]

    def test_unknown_opcode_stays_open(self, served):
        _, server, _ = served
        bogus = proto.HEADER.pack(proto.MAGIC, proto.WIRE_VERSION, 0x42, 0, 0)
        ping = proto.encode_frame(proto.Op.PING)
        frames, _ = raw_exchange(server, bogus + ping, read_frames=2)
        assert frames[0][0] == proto.ERROR_OP
        assert frames[1][0] == proto.Op.PING | proto.REPLY_BIT

    def test_server_survives_hostile_peer(self, served, rng):
        """After a framing-error close, other clients are unaffected."""
        _, server, client = served
        raw_exchange(server, b"\x00" * 64)
        client.ingest(rng.uniform(size=1_000))
        assert client.health() is True

    def test_failed_epoch_write_is_a_retryable_error_frame(
        self, rng, tmp_path, monkeypatch, caplog
    ):
        """A SNAPSHOT whose epoch append hits ENOSPC gets a retryable
        ``ServiceError`` frame on a connection that keeps serving: the
        served epoch is unchanged, the log holds no torn bytes, and the
        next SNAPSHOT succeeds."""
        config = ServiceConfig(
            num_shards=2, run_size=1_000, sample_size=50, snapshot_dir=tmp_path
        )
        snapshot = proto.encode_frame(proto.Op.SNAPSHOT)
        query = proto.encode_frame(
            proto.Op.QUANTILES, proto.encode_quantiles_request(PHI_GRID)
        )
        service = QuantileService(config)
        try:
            with ThreadedBinaryServer(service, port=0) as server:
                service.ingest(rng.uniform(size=3_000))
                served_epoch = service.snapshot()
                (segment,) = tmp_path.glob("segment-*.log")
                size = segment.stat().st_size
                service.ingest(rng.uniform(size=2_000))
                with connect(server) as sock:
                    with monkeypatch.context() as patch:
                        patch.setattr(store_module.os, "pwrite", _enospc)
                        sock.sendall(snapshot)
                        [(opcode, payload)] = read_frames(sock, 1)
                    assert opcode == proto.ERROR_OP
                    error = json.loads(payload)
                    assert error["kind"] == "service" and error["retryable"]
                    assert "retry" in error["error"]
                    assert segment.stat().st_size == size
                    assert service.current_epoch is served_epoch
                    sock.sendall(query + snapshot)
                    (_, answer), (opcode, reply) = read_frames(sock, 2)
                    vector = proto.decode_quantiles_reply(answer)
                    assert (vector.epoch, vector.count) == (1, 3_000)
                    assert opcode == proto.Op.SNAPSHOT | proto.REPLY_BIT
                    assert proto.decode_snapshot_reply(reply)["count"] == 5_000
        finally:
            service.close(final_snapshot=False)
        assert "never retrieved" not in caplog.text
        assert [p.name for p in tmp_path.iterdir()] == [segment.name]

    def test_concurrent_clients(self, served, rng):
        _, server, client = served
        client.ingest(rng.uniform(size=10_000))
        client.snapshot()
        errors = []

        def worker():
            try:
                with ServiceClient(server.url, timeout=10.0) as c:
                    for _ in range(5):
                        c.quantiles(PHI_GRID)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors


def read_frames(sock, count):
    """Read exactly ``count`` reply frames: ``[(opcode, payload), ...]``."""
    buf, frames = b"", []
    while len(frames) < count:
        if len(buf) >= proto.HEADER.size:
            opcode, length = proto.parse_header(buf[: proto.HEADER.size])
            end = proto.HEADER.size + length
            if len(buf) >= end:
                frames.append((opcode, buf[proto.HEADER.size : end]))
                buf = buf[end:]
                continue
        chunk = sock.recv(1 << 20)
        assert chunk, f"EOF after {len(frames)} of {count} frames"
        buf += chunk
    return frames


def resident_bytes():
    """This process's resident set size, from /proc/self/status."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    pytest.skip("no VmRSS in /proc/self/status")


def serve_tasks(server):
    """Names of the connection tasks alive on the server's loop."""

    async def names():
        return [
            task.get_coro().__qualname__
            for task in asyncio.all_tasks()
            if task.get_coro().__qualname__.startswith("_FrameReader")
        ]

    return asyncio.run_coroutine_threadsafe(names(), server._loop).result(10.0)


def _enospc(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestFrameReader:
    """Frames cut anywhere, pipelined, oversized, hostile or abandoned."""

    @pytest.mark.parametrize("size", [1_000, 20_000])  # staged; own buffer
    def test_dribbled_frame_and_split_header(self, served, rng, size):
        _, server, client = served
        data = rng.normal(size=size)
        frame = proto.encode_frame(
            proto.Op.INGEST, proto.encode_ingest_request(data)
        )
        with connect(server) as sock:
            # Two sends split the header; the payload's head follows a
            # few bytes per send, the rest in ragged chunks.
            pieces = [frame[:5], frame[5:12]]
            pos = 12
            while pos < 400:
                pieces.append(frame[pos : pos + 3])
                pos += 3
            cuts = np.sort(rng.choice(np.arange(pos + 1, len(frame)), 20, replace=False))
            pieces += [frame[a:b] for a, b in zip([pos, *cuts], [*cuts, len(frame)])]
            for piece in pieces[:200]:
                sock.sendall(piece)
                time.sleep(0.0005)
            for piece in pieces[200:]:
                sock.sendall(piece)
            sock.sendall(proto.encode_frame(proto.Op.PING))
            (ingest, ping) = read_frames(sock, 2)
        assert ingest[0] == proto.Op.INGEST | proto.REPLY_BIT
        assert proto.decode_ingest_reply(ingest[1])["accepted"] == size
        assert ping[0] == proto.Op.PING | proto.REPLY_BIT
        client.snapshot()
        vec = client.quantiles(PHI_GRID)
        ordered = np.sort(data)
        assert vec.count == size
        for i in range(len(PHI_GRID)):
            assert vec.lower[i] <= ordered[vec.ranks[i] - 1] <= vec.upper[i]

    def test_pipelined_burst_answers_in_order(self, served, rng):
        _, server, client = served
        client.ingest(rng.uniform(size=1_000))
        client.snapshot()
        big = rng.uniform(size=1_000_000)  # an 8 MB payload
        ping = proto.encode_frame(proto.Op.PING)
        query = proto.encode_frame(
            proto.Op.QUANTILES, proto.encode_quantiles_request(np.array(PHI_GRID))
        )
        burst = [
            ping,
            proto.encode_frame(proto.Op.INGEST, proto.encode_ingest_request(big)),
            query,
            ping,
            query,
            proto.encode_frame(
                proto.Op.INGEST, proto.encode_ingest_request(big[:1_000])
            ),
            ping,
        ]
        with connect(server) as sock:
            sock.sendall(b"".join(burst))
            replies = read_frames(sock, len(burst))
        expected = [proto.HEADER.unpack(f[:12])[2] | proto.REPLY_BIT for f in burst]
        assert [op for op, _ in replies] == expected
        assert proto.decode_ingest_reply(replies[1][1])["accepted"] == 1_000_000
        assert proto.decode_ingest_reply(replies[5][1])["accepted"] == 1_000
        # Both queries read the one published epoch, byte for byte.
        assert replies[2][1] == replies[4][1]
        assert proto.decode_quantiles_reply(replies[2][1]).count == 1_000

    def test_framing_error_before_unread_bytes_still_answers(self, served):
        """The peer is still sending when its header is refused: the
        server reads and drops the rest, so closing does not reset the
        connection under the error frame."""
        _, server, _ = served
        junk = b"XXXX" + bytes(2 * 1024 * 1024)
        frames, eof = raw_exchange(server, junk)
        assert eof and len(frames) == 1
        assert frames[0][0] == proto.ERROR_OP
        assert b"not an OPAQ frame" in frames[0][1]

    def test_framing_error_ends_the_stream_without_peer_eof(self, served):
        _, server, client = served
        with connect(server) as sock:
            sock.sendall(b"not a frame header")
            # The server half-closes after the error frame; it does not
            # wait out its linger for the peer to hang up first.
            sock.settimeout(1.0)
            (error,) = read_frames(sock, 1)
            assert error[0] == proto.ERROR_OP
            assert sock.recv(1024) == b""  # EOF follows the error frame
        assert client.health() is True

    def test_stalled_max_payload_peer_blocks_nobody(self, served, rng):
        _, server, client = served
        header = proto.HEADER.pack(
            proto.MAGIC, proto.WIRE_VERSION, proto.Op.INGEST, 0, proto.MAX_PAYLOAD
        )
        rss = resident_bytes()
        with connect(server) as stalled:
            stalled.sendall(header + b"\x01" * 1000)
            time.sleep(0.05)
            # The 64 MiB payload buffer is allocated, but untouched.
            assert resident_bytes() - rss < proto.MAX_PAYLOAD // 4
            # Other connections are served while the frame waits.
            client.ingest(rng.uniform(size=5_000))
            assert client.snapshot()["count"] == 5_000
            assert client.quantiles([0.5]).count == 5_000
            stalled.shutdown(socket.SHUT_WR)
            (error,) = read_frames(stalled, 1)
            assert stalled.recv(1024) == b""
        assert error[0] == proto.ERROR_OP
        assert b"mid-frame" in error[1]
        assert f"1000 of {proto.MAX_PAYLOAD}".encode() in error[1]

    def test_disconnect_during_ingest_leaves_no_task(self, served, rng, caplog):
        service, server, client = served
        entered, release = threading.Event(), threading.Event()
        ingest = service.ingest

        def slow_ingest(values):
            entered.set()
            release.wait(10.0)
            return ingest(values)

        service.ingest = slow_ingest
        frame = proto.encode_frame(
            proto.Op.INGEST, proto.encode_ingest_request(rng.uniform(size=1_000))
        )
        with connect(server) as sock:
            sock.sendall(frame)
            assert entered.wait(10.0)
        time.sleep(0.1)  # the loop sees the connection go
        release.set()
        # An idle connection reset by its peer (no EOF first) ends too.
        with connect(server) as sock:
            sock.sendall(proto.encode_frame(proto.Op.PING))
            read_frames(sock, 1)
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        deadline = time.monotonic() + 10.0
        while serve_tasks(server) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert serve_tasks(server) == []
        gc.collect()
        assert "never retrieved" not in caplog.text
        del service.ingest
        assert client.health() is True


class TestClientAddressing:
    def test_bad_scheme_rejected(self):
        with pytest.raises(ConfigError, match="scheme"):
            ServiceClient("ftp://127.0.0.1:9")

    def test_missing_port_rejected(self):
        with pytest.raises(ConfigError, match="host and port"):
            ServiceClient("opaq://127.0.0.1")

    def test_unreachable_binary_endpoint(self):
        client = ServiceClient("opaq://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServiceError):
            client.health()

    def test_double_start_rejected(self):
        config = ServiceConfig(num_shards=1, run_size=500, sample_size=25)
        with QuantileService(config) as service:
            server = ThreadedBinaryServer(service, port=0)
            server.start()
            try:
                with pytest.raises(ServiceError, match="already"):
                    server.start()
            finally:
                server.stop()


class TestBitIdentityGate:
    """A warm restart over the binary wire serves byte-identical doubles."""

    def test_warm_restart_serves_identical_bounds(self, rng, tmp_path):
        data = rng.normal(size=60_000)
        data[::4] = np.round(data[::4]) + 0.0  # duplicate-heavy, no -0.0
        phis = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        config = ServiceConfig(
            num_shards=2, run_size=1_000, sample_size=50,
            snapshot_dir=str(tmp_path / "snapshots"),
        )

        def life(requests):
            """One server lifetime, ended with a final snapshot."""
            service = QuantileService(config)
            try:
                with ThreadedBinaryServer(service, port=0) as server:
                    with ServiceClient(server.url, timeout=10.0) as client:
                        return requests(client)
            finally:
                service.close(final_snapshot=True)

        def first(client):
            client.ingest(data)
            client.snapshot()
            return client.quantiles(phis)

        served = life(first)
        restarted = life(lambda client: client.quantiles(phis))

        # The gate: every field, arrays as raw IEEE-754 bytes.
        assert wire_fields(restarted) == wire_fields(served)
        assert restarted.epoch == 1 and restarted.count == data.size


class TestKeyedEndToEnd:
    """INGEST_KEYED / QUANTILES_KEYED over the live binary server."""

    def test_keyed_ingest_and_query(self, served, rng):
        _, _, client = served
        batches = {
            ("acme", "latency"): rng.normal(10.0, 1.0, size=5_000),
            ("acme", "errors"): rng.normal(0.0, 1.0, size=3_000),
            ("globex", "latency"): rng.normal(20.0, 2.0, size=4_000),
        }
        receipt = client.ingest_keyed(batches)
        assert receipt == {"elements": 12_000, "keys": 3}

        answers = client.quantiles_keyed(list(batches), [0.25, 0.5, 0.75])
        assert len(answers) == 3
        for answer, ((tenant, metric), data) in zip(answers, batches.items()):
            assert (answer.tenant, answer.metric) == (tenant, metric)
            assert answer.count == len(data)
            assert answer.source == "resident"
            sorted_data = np.sort(data)
            for i in range(3):
                true = sorted_data[answer.psi[i] - 1]
                assert answer.lower[i] <= true <= answer.upper[i]

    def test_keyed_rollup_over_wire(self, served, rng):
        _, _, client = served
        client.ingest_keyed(
            [("t1", "lat", rng.uniform(size=2_000)),
             ("t2", "lat", rng.uniform(size=3_000))]
        )
        [metric_rollup] = client.quantiles_keyed([("*", "lat")], [0.5])
        assert metric_rollup.source == "rollup:metric"
        assert metric_rollup.count == 5_000
        [global_rollup] = client.quantiles_keyed([("*", "*")], [0.5])
        assert global_rollup.source == "rollup:global"
        assert global_rollup.count == 5_000

    def test_keyed_unknown_key_is_typed(self, served):
        _, _, client = served
        with pytest.raises(EstimationError, match="no data"):
            client.quantiles_keyed([("ghost", "metric")], [0.5])

    def test_keyed_stats_visible(self, served, rng):
        _, _, client = served
        client.ingest_keyed({("a", "m"): rng.uniform(size=1_000)})
        tenancy = client.stats()["tenancy"]
        assert tenancy["resident_keys"] == 1
        assert tenancy["ingested_elements"] == 1_000
        # The spill traffic counters travel with the rest of the section.
        assert tenancy["delta_appends"] == tenancy["disk_reads"] == 0
        assert tenancy["restores"] == 0

    def test_keyed_answers_match_the_service_bit_identically(self, served, rng):
        """The wire frames the registry's answers without changing a bit:
        every field of the client's answers equals the service's own."""
        service, _, client = served
        client.ingest_keyed(
            {
                ("acme", "lat"): rng.normal(size=8_000),
                ("acme", "err"): rng.normal(size=3_000),
                ("globex", "lat"): rng.normal(size=5_000),
            }
        )
        pairs = [("acme", "lat"), ("acme", "err"), ("globex", "lat"),
                 ("*", "lat"), ("*", "*")]
        over_wire = client.quantiles_keyed(pairs, PHI_GRID)
        in_process = service.quantiles_keyed(
            [compose_key(tenant, metric) for tenant, metric in pairs], PHI_GRID
        )
        assert [a.source for a in over_wire] == [
            "resident", "resident", "resident", "rollup:metric", "rollup:global"
        ]
        assert [wire_fields(a) for a in over_wire] == [
            wire_fields(a) for a in in_process
        ]

    def test_keyed_counts_take_the_ingest_policy(self, served):
        """Counts in a hand-packed INGEST_KEYED frame are judged by the
        registry's policy: a whole float64 count counts, a fraction is a
        typed error, and the same connection keeps serving."""
        _, server, client = served
        values = proto.pack_array(np.array([3.0, 1.0]))

        def ingest_frame(metric, counts):
            payload = (
                proto._pack_keys([compose_key("acme", metric)])
                + proto.pack_array(counts)
                + values
            )
            return proto.encode_frame(proto.Op.INGEST_KEYED, payload)

        with connect(server) as sock:
            sock.sendall(
                ingest_frame("int", np.array([2], dtype=np.int64))
                + ingest_frame("float", np.array([2.0]))
                + ingest_frame("half", np.array([2.5]))
                + proto.encode_frame(proto.Op.PING)
            )
            as_int, as_float, half, ping = read_frames(sock, 4)
        reply = proto.Op.INGEST_KEYED | proto.REPLY_BIT
        assert as_int[0] == reply and as_float[0] == reply
        assert proto.decode_ingest_keyed_reply(as_float[1]) == {
            "elements": 2, "keys": 1,
        }
        assert half[0] == proto.ERROR_OP
        with pytest.raises(DataError, match="whole numbers"):
            proto.raise_remote_error(half[1])
        assert ping[0] == proto.Op.PING | proto.REPLY_BIT

        answers = client.quantiles_keyed(
            [("acme", "int"), ("acme", "float")], PHI_GRID
        )
        int_answer, float_answer = (wire_fields(a) for a in answers)
        assert int_answer.pop("metric") == "int"
        assert float_answer.pop("metric") == "float"
        assert float_answer == int_answer
