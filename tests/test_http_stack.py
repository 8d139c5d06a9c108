"""The one HTTP stack: every role, serve included, on one handler.

``repro serve`` and every fleet role run on
:class:`repro.fleet.protocol.FleetHTTPServer`, and ``ServeClient`` sends
through :class:`repro.fleet.protocol.FleetClient`.  These tests pin what
the shared handler promises on the wire: each answer carries its own
request's ``X-Request-Id`` (keep-alive and 404s included), an over-limit
body is refused unread with the error envelope, a stopped fleet role
severs its keep-alive peers, and client transport failures are
transient errors.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys

import pytest

import repro
from repro.errors import TransientError
from repro.fleet.protocol import (
    JSON_TYPE,
    MAX_BLOB_BYTES,
    FleetHTTPServer,
)
from repro.obs import Tracer, current_request_id, set_tracer
from repro.serve import HotspotServer, ServeClient, ServeService
from repro.serve.httpd import MAX_BODY_BYTES


class _EchoApp:
    """A fleet role that answers with the request id it sees bound."""

    def handle(self, method, path, body, headers):
        return 200, {"bound": current_request_id()}, JSON_TYPE


def _get(conn, path, request_id=None):
    headers = {} if request_id is None else {"X-Request-Id": request_id}
    conn.request("GET", path, headers=headers)
    response = conn.getresponse()
    return response, json.loads(response.read())


@pytest.fixture
def serve_server():
    with HotspotServer(ServeService()) as server:
        yield server


class TestRequestIdPerAnswer:
    def test_keep_alive_404_echoes_its_own_id(self, serve_server):
        conn = http.client.HTTPConnection("127.0.0.1", serve_server.port, timeout=10)
        try:
            first, _ = _get(conn, "/healthz", "first-1")
            assert first.getheader("X-Request-Id") == "first-1"
            second, document = _get(conn, "/nope", "second-2")
        finally:
            conn.close()
        assert second.status == 404
        assert second.getheader("X-Request-Id") == "second-2"
        assert document["error"]["code"] == "not_found"
        assert document["request_id"] == "second-2"

    def test_fresh_connection_404_carries_its_own_id(self, serve_server):
        conn = http.client.HTTPConnection("127.0.0.1", serve_server.port, timeout=10)
        try:
            sent, sent_document = _get(conn, "/nope", "fresh-3")
            conn.close()
            minted, minted_document = _get(conn, "/nope")
        finally:
            conn.close()
        assert sent.getheader("X-Request-Id") == "fresh-3"
        assert sent_document["request_id"] == "fresh-3"
        assert minted.getheader("X-Request-Id")
        assert minted.getheader("X-Request-Id") == minted_document["request_id"]


class TestBodyLimit:
    @pytest.fixture(params=["serve", "fleet"])
    def server_and_limit(self, request):
        if request.param == "serve":
            server, limit = HotspotServer(ServeService()), MAX_BODY_BYTES
        else:
            server, limit = FleetHTTPServer(_EchoApp()), MAX_BLOB_BYTES
        with server:
            yield server, limit

    def test_over_limit_body_refused_unread(self, server_and_limit):
        server, limit = server_and_limit
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            # Headers only: the answer must come without a body byte sent.
            conn.putrequest("POST", "/v1/predict")
            conn.putheader("Content-Type", JSON_TYPE)
            conn.putheader("Content-Length", str(limit + 1))
            conn.putheader("X-Request-Id", "big-4")
            conn.endheaders()
            response = conn.getresponse()
            document = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 413
        assert response.getheader("X-Request-Id") == "big-4"
        assert response.getheader("Connection") == "close"
        assert response.getheader("Server").split()[0] == "repro"
        assert document == {
            "error": {
                "code": "payload_too_large",
                "message": f"request body exceeds {limit} bytes",
            },
            "request_id": "big-4",
        }


class TestLifecycle:
    def test_stopped_fleet_role_severs_keep_alive_peers(self):
        server = FleetHTTPServer(_EchoApp()).start()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            response, document = _get(conn, "/x", "alive-5")
            assert response.status == 200 and document["bound"] == "alive-5"
            server.stop()
            with pytest.raises((http.client.HTTPException, OSError)):
                _get(conn, "/x")
        finally:
            conn.close()
            server.stop()

    def test_verbose_app_writes_the_access_log(self, capsys):
        with HotspotServer(ServeService(), verbose=True) as server:
            ServeClient(server.url).health_document()
        with FleetHTTPServer(_EchoApp()) as role:
            conn = http.client.HTTPConnection("127.0.0.1", role.port, timeout=10)
            try:
                _get(conn, "/quiet")
            finally:
                conn.close()
        err = capsys.readouterr().err
        assert '"GET /healthz HTTP/1.1" 503' in err
        assert "/quiet" not in err

    def test_traced_serve_request_adds_one_rpc_span(self, serve_server):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            ServeClient(serve_server.url).health_document()
        finally:
            set_tracer(None)
        spans = [span for span in tracer.finished() if span.name == "fleet.rpc"]
        assert len(spans) == 1
        assert spans[0].attrs["path"] == "/healthz"


def test_serve_client_against_closed_port_raises_transient():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(TransientError):
        ServeClient(f"http://127.0.0.1:{port}", timeout=5.0).health_document()


@pytest.mark.parametrize("first", ["repro.serve", "repro.fleet"])
def test_serve_and_fleet_import_in_either_order(first):
    # repro.fleet imports repro.serve.metrics, and the serve front end and
    # client import repro.fleet.protocol, so repro.serve loads them lazily.
    code = f"""
import sys, {first}
assert {first!r} == "repro.fleet" or "repro.fleet" not in sys.modules
from repro.serve import HotspotServer, ServeClient
from repro.fleet import FleetClient, FleetHTTPServer
"""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
