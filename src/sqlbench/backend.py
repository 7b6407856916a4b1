"""Completion backends (http, replay, gold-oracle) and SQL post-processing."""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass


DEFAULT_STOP = ("--", "\n\n", ";", "#")

# marker for completions that truncate to nothing; evaluated as invalid SQL
EMPTY_PREDICTION = ""


class BackendError(Exception):
    pass


class MissingFixtureError(BackendError):
    pass


@dataclass
class CompletionRequest:
    prompt: str
    max_tokens: int = 200
    temperature: float = 0.0
    stop: tuple[str, ...] = DEFAULT_STOP

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not self.stop:
            raise ValueError("stop list must be non-empty")


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


class ReplayBackend:
    """Deterministic backend fed from a JSONL file of example_id -> completion."""

    def __init__(self, path):
        self.completions = {}
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                self.completions[rec["example_id"]] = rec.get(
                    "raw_completion", rec.get("completion", "")
                )

    def complete(self, example_id: str, request: CompletionRequest) -> str:
        if example_id not in self.completions:
            raise MissingFixtureError(f"no replay completion for {example_id}")
        return self.completions[example_id]


class GoldOracleBackend:
    """Test backend that returns the gold SQL body (without its SELECT prefix)."""

    def __init__(self, gold_by_id: dict[str, str]):
        self.gold_by_id = dict(gold_by_id)

    def complete(self, example_id: str, request: CompletionRequest) -> str:
        if example_id not in self.gold_by_id:
            raise MissingFixtureError(f"no gold SQL for {example_id}")
        gold = self.gold_by_id[example_id].strip()
        if gold.lower().startswith("select"):
            gold = gold[len("select"):]
        return gold.strip()


class HttpBackend:
    """Generic completion endpoint client with retry and a requests-per-minute cap.

    POSTs {model, prompt, max_tokens, temperature, stop} to <base_url> and reads
    choices[0].text from the JSON response. The API key comes from the
    SQLBENCH_API_KEY or OPENAI_API_KEY environment variable.
    """

    def __init__(self, base_url: str, model: str, rpm: int = 20, retries: int = 5,
                 request_timeout: float = 60.0):
        self.base_url = base_url
        self.model = model
        self.rpm = rpm
        self.retries = retries
        self.request_timeout = request_timeout
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

    def complete(self, example_id: str, request: CompletionRequest) -> str:
        import requests

        payload = {
            "model": self.model,
            "prompt": request.prompt,
            "max_tokens": request.max_tokens,
            "temperature": request.temperature,
            "stop": list(request.stop),
        }
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
            try:
                resp = requests.post(self.base_url, json=payload, headers=headers,
                                     timeout=self.request_timeout)
                if resp.status_code in (429, 500, 502, 503, 504):
                    last_error = f"HTTP {resp.status_code}"
                elif resp.status_code != 200:
                    raise BackendError(
                        f"backend rejected {example_id}: HTTP {resp.status_code} {resp.text[:200]}"
                    )
                else:
                    try:
                        text = resp.json()["choices"][0]["text"]
                    except (ValueError, LookupError, TypeError):  # not JSON, or another shape
                        text = None
                    if not isinstance(text, str):
                        raise BackendError(f"backend sent no choices[0].text for {example_id}")
                    return text
            except requests.RequestException as e:
                last_error = str(e)
        raise BackendError(f"backend failed for {example_id} after {self.retries} retries: {last_error}")


def predict(example_id: str, prompt_text: str, backend,
            max_tokens: int = 200, temperature: float = 0.0) -> Prediction:
    request = CompletionRequest(prompt=prompt_text, max_tokens=max_tokens,
                                temperature=temperature)
    raw = backend.complete(example_id, request)
    return Prediction(example_id=example_id, raw_completion=raw, sql=finalize_sql(raw))
