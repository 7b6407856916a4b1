"""Completion backends (http, and replay of stored completions, which also
serves the gold oracle) and SQL post-processing."""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass


# sent to the http backend, and applied again by finalize_sql to every completion
DEFAULT_STOP = ("--", "\n\n", ";", "#")
REQUEST_TIMEOUT_S = 60.0
RETRY_STATUSES = (429, 500, 502, 503, 504)

# marker for completions that truncate to nothing; evaluated as invalid SQL
EMPTY_PREDICTION = ""


class BackendError(Exception):
    pass


class MissingFixtureError(BackendError):
    pass


@dataclass
class Prediction:
    example_id: str
    raw_completion: str
    sql: str


def finalize_sql(raw_completion: str) -> str:
    """Truncate at the earliest stop string, reattach the SELECT prefix the
    prompt ended with, and collapse newlines. Empty completions yield the
    empty-prediction marker."""
    cut = len(raw_completion)
    for stop in DEFAULT_STOP:
        idx = raw_completion.find(stop)
        if idx != -1:
            cut = min(cut, idx)
    body = raw_completion[:cut].strip()
    if not body:
        return EMPTY_PREDICTION
    body = re.sub(r"[ \t]*\n[ \t]*", " ", body)
    return "SELECT " + body


def gold_completion(gold_sql: str) -> str:
    """The completion that finalize_sql turns back into gold_sql: the query
    body after its leading SELECT."""
    gold = gold_sql.strip()
    if gold.lower().startswith("select"):
        gold = gold[len("select"):]
    return gold.strip()


class ReplayBackend:
    """Deterministic backend that returns stored completions by example id:
    a replay file's, or the gold queries' bodies."""

    def __init__(self, completions: dict[str, str]):
        self.completions = completions

    def complete(self, example_id: str, prompt: str, max_tokens: int, temperature: float) -> str:
        if example_id not in self.completions:
            raise MissingFixtureError(f"no stored completion for {example_id}")
        return self.completions[example_id]


class HttpBackend:
    """Generic completion endpoint client with retry and a requests-per-minute cap.

    POSTs {model, prompt, max_tokens, temperature, stop} to <base_url> and reads
    choices[0].text from the JSON response. The API key comes from the
    SQLBENCH_API_KEY or OPENAI_API_KEY environment variable.
    """

    def __init__(self, base_url: str, model: str, rpm: int, retries: int):
        self.base_url = base_url
        self.model = model
        self.rpm = rpm
        self.retries = retries
        self._last_request = 0.0
        self.api_key = os.environ.get("SQLBENCH_API_KEY") or os.environ.get("OPENAI_API_KEY")

    def _throttle(self):
        if self.rpm <= 0:
            return
        min_interval = 60.0 / self.rpm
        wait = self._last_request + min_interval - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        self._last_request = time.monotonic()

    def complete(self, example_id: str, prompt: str, max_tokens: int, temperature: float) -> str:
        # imported here, so that a replay or gold run does not load them
        import http.client
        import urllib.error
        import urllib.request

        body = json.dumps({
            "model": self.model,
            "prompt": prompt,
            "max_tokens": max_tokens,
            "temperature": temperature,
            "stop": list(DEFAULT_STOP),
        }).encode()
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        delay = 1.0
        last_error = None
        for attempt in range(1 + self.retries):  # one attempt, then the retries
            if attempt:
                time.sleep(min(delay, 30.0))
                delay *= 2
            self._throttle()
            request = urllib.request.Request(self.base_url, body, headers, method="POST")
            try:
                with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as resp:
                    reply = resp.read()
            except urllib.error.HTTPError as e:  # a status other than 2xx
                with e:
                    if e.code not in RETRY_STATUSES:
                        detail = e.read(200).decode(errors="replace")
                        raise BackendError(
                            f"backend rejected {example_id}: HTTP {e.code} {detail}") from e
                last_error = f"HTTP {e.code}"
                continue
            except (OSError, http.client.HTTPException) as e:
                last_error = str(e)
                continue
            try:
                text = json.loads(reply)["choices"][0]["text"]
            except (ValueError, LookupError, TypeError):  # not JSON, or another shape
                text = None
            if not isinstance(text, str):
                raise BackendError(f"backend sent no choices[0].text for {example_id}")
            return text
        raise BackendError(f"backend failed for {example_id} after {self.retries} retries: {last_error}")


def predict(example_id: str, prompt_text: str, backend, max_tokens: int,
            temperature: float) -> Prediction:
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, not {temperature}")
    raw = backend.complete(example_id, prompt_text, max_tokens, temperature)
    return Prediction(example_id=example_id, raw_completion=raw, sql=finalize_sql(raw))
