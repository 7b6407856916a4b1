import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from sqlbench.backend import (
    BackendError,
    EMPTY_PREDICTION,
    HttpBackend,
    ReplayBackend,
    finalize_sql,
    gold_completion,
    predict,
)

STOP = ["--", "\n\n", ";", "#"]


class TestFinalizeSql:
    def test_stop_at_semicolon(self):
        assert finalize_sql(" Name FROM conductor;\n\nextra") == "SELECT Name FROM conductor"

    def test_stop_at_comment(self):
        assert finalize_sql(" * FROM t -- comment") == "SELECT * FROM t"

    def test_stop_at_blank_line(self):
        assert finalize_sql(" a FROM t\n\nmore") == "SELECT a FROM t"

    def test_stop_at_hash(self):
        assert finalize_sql(" a FROM t # note") == "SELECT a FROM t"

    def test_empty_becomes_marker(self):
        assert finalize_sql("") == EMPTY_PREDICTION
        assert finalize_sql(";anything") == EMPTY_PREDICTION
        assert finalize_sql("   \n") == EMPTY_PREDICTION

    def test_newlines_collapsed(self):
        assert finalize_sql(" a FROM t\nWHERE x = 1") == "SELECT a FROM t WHERE x = 1"

    @pytest.mark.parametrize("raw", [
        " Name FROM conductor;", " a,b FROM t\nORDER BY a", "x", " * FROM t -- c",
    ])
    def test_output_never_contains_stop_strings(self, raw):
        out = finalize_sql(raw)
        for stop in STOP:
            assert stop not in out


class TestReplayBackend:
    def test_fixture_echo(self):
        backend = ReplayBackend({"e0007": "name FROM singer"})
        assert backend.complete("e0007", "...", 200, 0.0) == "name FROM singer"

    def test_missing_key(self):
        with pytest.raises(BackendError, match="e0001"):
            ReplayBackend({}).complete("e0001", "x", 200, 0.0)

    def test_deterministic(self):
        b = ReplayBackend({"a": "x"})
        assert b.complete("a", "p", 200, 0.0) == b.complete("a", "p", 200, 0.0)


class TestPredict:
    def test_negative_temperature_refused(self):
        with pytest.raises(ValueError, match="temperature"):
            predict("a", "p", ReplayBackend({"a": "x"}), 200, -1.0)


class TestGoldOracle:
    def test_returns_body_without_select(self):
        assert gold_completion("SELECT Name FROM conductor") == "Name FROM conductor"

    def test_lowercase_gold(self):
        assert gold_completion("select max(mpg) from cars_data") == "max(mpg) from cars_data"

    def test_round_trip_through_finalize(self):
        golds = [
            "SELECT Name FROM conductor",
            "SELECT a ,  b FROM t WHERE x = 'y';",
            "select count(*) from t",
        ]
        backend = ReplayBackend({f"e{i}": gold_completion(g) for i, g in enumerate(golds)})
        for i, gold in enumerate(golds):
            p = predict(f"e{i}", "prompt", backend, 200, 0.0)
            want = " ".join(gold.rstrip("; ").split())
            got = " ".join(p.sql.split())
            assert got.lower() == want.lower()


class _FlakyHandler(BaseHTTPRequestHandler):
    failures_left = 0
    failure_status = 503
    requests_seen = 0
    received = []  # (headers, body) of each request
    reply = None  # a 200 body to send instead of a completion

    def do_POST(self):
        cls = type(self)
        cls.requests_seen += 1
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        cls.received.append((dict(self.headers), body))
        if cls.failures_left > 0:
            cls.failures_left -= 1
            self.send_response(cls.failure_status)
            self.end_headers()
            self.wfile.write(b"go away")
            return
        payload = cls.reply or json.dumps({"choices": [{"text": " 1 FROM t"}],
                                           "echo_model": body.get("model")})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload.encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_server(monkeypatch):
    """A local completion endpoint; the backend's backoff does not sleep."""
    monkeypatch.setattr("sqlbench.backend.time.sleep", lambda seconds: None)
    _FlakyHandler.failures_left = 0
    _FlakyHandler.failure_status = 503
    _FlakyHandler.requests_seen = 0
    _FlakyHandler.received = []
    _FlakyHandler.reply = None
    server = HTTPServer(("127.0.0.1", 0), _FlakyHandler)
    # a short poll, so that shutdown does not wait out the default half second
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/completions"
    server.shutdown()
    thread.join()  # else a later test that forks may still see it alive
    server.server_close()


class TestHttpBackend:
    def test_retries_transient_failures(self, flaky_server):
        _FlakyHandler.failures_left = 2
        backend = HttpBackend(flaky_server, "m", rpm=0, retries=5)
        backend._throttle = lambda: None  # no pacing in tests
        out = backend.complete("e0", "p", 200, 0.0)
        assert out == " 1 FROM t"
        assert _FlakyHandler.requests_seen == 3

    def test_unreachable_url_errors_after_retries(self, monkeypatch):
        monkeypatch.setattr("sqlbench.backend.time.sleep", lambda seconds: None)
        backend = HttpBackend("http://127.0.0.1:1/nope", "m", rpm=0, retries=2)
        backend._throttle = lambda: None
        with pytest.raises(BackendError, match="e9"):
            backend.complete("e9", "p", 200, 0.0)

    def test_zero_retries_sends_one_request(self, flaky_server):
        backend = HttpBackend(flaky_server, "m", rpm=0, retries=0)
        assert backend.complete("e0", "p", 200, 0.0) == " 1 FROM t"
        assert _FlakyHandler.requests_seen == 1
        _FlakyHandler.failures_left = 1
        with pytest.raises(BackendError, match="e1 after 0 retries: HTTP 503"):
            backend.complete("e1", "p", 200, 0.0)
        assert _FlakyHandler.requests_seen == 2

    @pytest.mark.parametrize("reply", ["{}", '{"choices": []}', '{"choices": [{"text": null}]}',
                                       "[1]", "not json"])
    def test_malformed_reply_names_the_example(self, flaky_server, reply):
        _FlakyHandler.reply = reply
        backend = HttpBackend(flaky_server, "m", rpm=0, retries=3)
        with pytest.raises(BackendError, match=r"no choices\[0\].text for e7"):
            backend.complete("e7", "p", 200, 0.0)
        assert _FlakyHandler.requests_seen == 1  # not retried


    def test_request_body_and_key(self, flaky_server, monkeypatch):
        monkeypatch.setenv("SQLBENCH_API_KEY", "sk-test")
        backend = HttpBackend(flaky_server, "m", rpm=0, retries=0)
        assert backend.complete("e0", "the prompt", 64, 0.5) == " 1 FROM t"
        [(headers, body)] = _FlakyHandler.received
        assert body == {"model": "m", "prompt": "the prompt", "max_tokens": 64,
                        "temperature": 0.5, "stop": STOP}
        assert headers["Authorization"] == "Bearer sk-test"

    def test_client_error_not_retried(self, flaky_server):
        _FlakyHandler.failures_left = 1
        _FlakyHandler.failure_status = 400
        backend = HttpBackend(flaky_server, "m", rpm=0, retries=5)
        with pytest.raises(BackendError, match="rejected e3: HTTP 400 go away"):
            backend.complete("e3", "p", 200, 0.0)
        assert _FlakyHandler.requests_seen == 1
