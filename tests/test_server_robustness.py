"""Protocol robustness: hostile and broken bytes against a live server.

Satellite contract: malformed/truncated request bytes, oversized
payloads, unknown endpoints, and mid-request client disconnects all
yield clean coded error responses, with the *connection* still usable
where framing survives (garbage content) and the *server* still serving
where it does not (garbage framing, vanished peers).  No tracebacks, no
hung tick loop.

These tests need no datasets — an empty ``QueryService({})`` serves
``ping``/``stats`` fine, which is all "still serving" needs to prove.
"""

import json
import socket

import pytest

from repro.serving import QueryService, ServingClient
from repro.server import (
    MAX_REQUEST_BYTES,
    AsyncQueryServer,
    ProtocolError,
    ServerThread,
    parse_request,
)


@pytest.fixture()
def host():
    with ServerThread(lambda: AsyncQueryServer(QueryService({}))) as running:
        yield running


def raw_roundtrip(address, payload: bytes) -> dict:
    """Send raw bytes on a fresh connection; decode one response line."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(payload)
        reply = sock.makefile("rb").readline()
    return json.loads(reply)


# ---------------------------------------------------------- parser contract

def test_parse_request_rejects_oversized():
    with pytest.raises(ProtocolError) as excinfo:
        parse_request(b"x" * (MAX_REQUEST_BYTES + 1))
    assert excinfo.value.code == "oversized"


def test_parse_request_rejects_bad_utf8_and_bad_json():
    for line in (b"\xff\xfe{}\n", b"{not json}\n", b"", b"\n"):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line)
        assert excinfo.value.code == "bad-json"


def test_parse_request_rejects_non_objects_and_missing_op():
    for line in (b"[1,2]\n", b'"op"\n', b"42\n"):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line)
        assert excinfo.value.code == "bad-request"
    for line in (b"{}\n", b'{"op": 7}\n', b'{"op": ""}\n'):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line)
        assert excinfo.value.code == "bad-request"


# -------------------------------------------------- connection survivability

def test_malformed_json_keeps_the_connection_usable(host):
    with socket.create_connection(host.address, timeout=10) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"this is not json\n")
        first = json.loads(reader.readline())
        assert first["ok"] is False
        assert first["error"] == "bad-json"
        # same socket, next request: served normally
        sock.sendall(b'{"op": "ping"}\n')
        second = json.loads(reader.readline())
        assert second == {"ok": True, "pong": True}


def test_unknown_op_keeps_the_connection_usable(host):
    with socket.create_connection(host.address, timeout=10) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b'{"op": "teleport"}\n')
        first = json.loads(reader.readline())
        assert first["error"] == "unknown-op"
        sock.sendall(b'{"op": "stats"}\n')
        assert json.loads(reader.readline())["ok"] is True


def test_oversized_line_answers_then_closes_but_server_survives(host):
    big = b'{"op": "ping", "pad": "' + b"x" * MAX_REQUEST_BYTES + b'"}\n'
    with socket.create_connection(host.address, timeout=10) as sock:
        reader = sock.makefile("rb")
        sock.sendall(big)
        reply = json.loads(reader.readline())
        assert reply["error"] == "oversized"
        # framing on this connection is unrecoverable: server closes it
        assert reader.readline() == b""
    # ...but the server itself keeps serving new connections
    assert raw_roundtrip(host.address, b'{"op": "ping"}\n')["pong"] is True


def test_truncated_request_then_disconnect_is_harmless(host):
    # half a request, no newline, peer vanishes — nothing to answer
    with socket.create_connection(host.address, timeout=10) as sock:
        sock.sendall(b'{"op": "sub')
    assert raw_roundtrip(host.address, b'{"op": "ping"}\n')["pong"] is True


def test_disconnect_without_reading_the_response_is_harmless(host):
    # a full request whose response the client never reads
    with socket.create_connection(host.address, timeout=10) as sock:
        sock.sendall(b'{"op": "stats"}\n')
    assert raw_roundtrip(host.address, b'{"op": "ping"}\n')["pong"] is True


def test_abrupt_reset_mid_session_is_harmless(host):
    # SO_LINGER(0) makes close() send RST instead of FIN — the reset
    # path through the handler, not the clean-EOF path
    import struct

    sock = socket.create_connection(host.address, timeout=10)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.sendall(b'{"op": "ping"}\n')
    sock.close()
    assert raw_roundtrip(host.address, b'{"op": "ping"}\n')["pong"] is True


def test_tick_loop_not_hung_after_abuse(host):
    """After a pile of garbage, the loop still applies commands: an
    admitted (if invalid) submit is answered, not parked forever."""
    for garbage in (b"\x00\x01\x02\n", b"[]\n", b'{"op":"warp"}\n'):
        response = raw_roundtrip(host.address, garbage)
        assert response["ok"] is False
    with ServingClient(*host.address) as client:
        stats = client.stats()
        assert stats["protocol_errors"] >= 3
        # the loop answers admissions: unknown dataset comes back as a
        # coded error (through the queue), not a timeout
        reply = client.request("status")
        assert reply["ok"] is True


def test_multiple_requests_in_one_write_are_all_answered(host):
    """Pipelining two lines in one TCP segment: both answered, in order."""
    with socket.create_connection(host.address, timeout=10) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b'{"op": "ping"}\n{"op": "stats"}\n')
        first = json.loads(reader.readline())
        second = json.loads(reader.readline())
    assert first == {"ok": True, "pong": True}
    assert second["ok"] is True and "stats" in second
