"""``ServeClient`` — the Python client of the serving API.

Sends through :class:`~repro.fleet.protocol.FleetClient`, the fleet's
HTTP client (no third-party HTTP stack), and speaks the JSON protocol of
:mod:`repro.serve.protocol`.  Transport failures raise
:class:`~repro.errors.TransientError`, as they do for every fleet peer.
Domain-level helpers accept and return
:class:`~repro.layout.clip.Clip` / numpy objects, so tests and
benchmarks can round-trip through the wire format without manual
encoding::

    client = ServeClient("http://127.0.0.1:8976")
    result = client.predict(clips)           # PredictResult
    assert result.flags.dtype == bool
    report = client.scan(rects, layer=1)     # decoded /v1/scan response
    client.healthz()                         # raises if unhealthy
"""

from __future__ import annotations

import json
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import ServeError
from repro.fleet.protocol import FleetClient
from repro.geometry.rect import Rect
from repro.layout.clip import Clip
from repro.obs import REQUEST_ID_HEADER
from repro.resilience.retry import RetryPolicy
from repro.serve.protocol import encode_clip, encode_rect

#: HTTP statuses the client treats as transient for idempotent requests.
RETRYABLE_STATUSES = (429, 503)


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Delay seconds from a ``Retry-After`` header (delta form only)."""
    if not value:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None  # HTTP-date form: fall back to local backoff


class ServeClientError(ServeError):
    """A non-2xx response; carries the server's structured error."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = status
        self.code = code
        self.message = message


@dataclass
class PredictResult:
    """Decoded ``/v1/predict`` response."""

    model: str
    threshold: float
    flags: np.ndarray
    margins: np.ndarray
    #: Correlation id echoed by the server (``X-Request-Id``).
    request_id: Optional[str] = None
    #: Transport attempts the client spent (1 = no retry needed).
    attempts: int = 1

    @property
    def hotspot_count(self) -> int:
        return int(self.flags.sum())


class ServeClient:
    """Thin, thread-safe client for one hotspot-inference server."""

    def __init__(
        self,
        url: str,
        timeout: float = 60.0,
        retries: int = 2,
        backoff: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", ""):
            raise ServeError(f"unsupported scheme {parsed.scheme!r}")
        if ":" not in (parsed.netloc or parsed.path):
            raise ServeError(f"client URL needs host:port, got {url!r}")
        self._transport = FleetClient(url, timeout=timeout)
        #: Extra attempts on 429/503 for idempotent requests; the
        #: server's ``Retry-After`` wins over the local backoff schedule.
        self.retries = retries
        self.backoff = backoff or RetryPolicy(
            attempts=retries + 1, base_delay_s=0.05, max_delay_s=1.0
        )
        self._sleep = sleep

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._transport.close()

    def _request(
        self,
        method: str,
        path: str,
        document: Optional[dict] = None,
        request_id: Optional[str] = None,
    ) -> tuple[int, object, str, dict]:
        body = None if document is None else json.dumps(document).encode("utf-8")
        status, payload, headers = self._transport.request_full(
            method,
            path,
            body,
            headers=None if request_id is None else {REQUEST_ID_HEADER: request_id},
        )
        content_type = headers.get("Content-Type", "")
        if content_type.startswith("application/json"):
            try:
                decoded: object = json.loads(payload)
            except ValueError as exc:
                raise ServeError(f"invalid JSON from server: {exc}") from exc
        else:
            decoded = payload.decode("utf-8", "replace")
        return status, decoded, content_type, headers

    def _request_ok(
        self,
        method: str,
        path: str,
        document: Optional[dict] = None,
        request_id: Optional[str] = None,
        idempotent: bool = True,
    ) -> tuple[object, int]:
        """Request with transient-status retry; returns (body, attempts).

        ``429``/``503`` responses to idempotent requests are retried up
        to ``self.retries`` extra times, sleeping for the server's
        ``Retry-After`` when present and the local deterministic backoff
        otherwise.  Every repro-serve endpoint is a pure function of its
        payload, so prediction and scan requests are safely idempotent.
        """
        attempts = 0
        while True:
            attempts += 1
            status, decoded, _, headers = self._request(
                method, path, document, request_id
            )
            if status < 300:
                return decoded, attempts
            if (
                idempotent
                and status in RETRYABLE_STATUSES
                and attempts <= self.retries
            ):
                delay = _parse_retry_after(headers.get("Retry-After"))
                if delay is None:
                    delay = self.backoff.delay(attempts - 1, label=path)
                self._sleep(delay)
                continue
            if isinstance(decoded, dict) and isinstance(decoded.get("error"), dict):
                error = decoded["error"]
                raise ServeClientError(
                    status,
                    str(error.get("code", "error")),
                    str(error.get("message", "")),
                )
            raise ServeClientError(status, "error", str(decoded)[:200])

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def predict(
        self,
        clips: Sequence[Clip],
        model: Optional[str] = None,
        threshold: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> PredictResult:
        document: dict = {"clips": [encode_clip(clip) for clip in clips]}
        if model is not None:
            document["model"] = model
        if threshold is not None:
            document["threshold"] = threshold
        response, attempts = self._request_ok(
            "POST", "/v1/predict", document, request_id
        )
        return PredictResult(
            model=response["model"],
            threshold=response["threshold"],
            flags=np.array(response["flags"], dtype=bool),
            margins=np.array(response["margins"], dtype=float),
            request_id=response.get("request_id"),
            attempts=attempts,
        )

    def predict_payload(self, document: dict) -> dict:
        """Raw ``/v1/predict`` for callers that already hold payloads."""
        return self._request_ok("POST", "/v1/predict", document)[0]

    def scan(
        self,
        rects: Sequence[Rect],
        layer: int = 1,
        model: Optional[str] = None,
        threshold: Optional[float] = None,
    ) -> dict:
        document: dict = {
            "rects": [encode_rect(rect) for rect in rects],
            "layer": layer,
        }
        if model is not None:
            document["model"] = model
        if threshold is not None:
            document["threshold"] = threshold
        response, attempts = self._request_ok("POST", "/v1/scan", document)
        assert isinstance(response, dict)
        response["client_attempts"] = attempts
        return response

    def healthz(self) -> dict:
        """The health document; raises :class:`ServeClientError` on 503."""
        status, decoded, _, _ = self._request("GET", "/healthz")
        if status != 200:
            message = decoded.get("status", "") if isinstance(decoded, dict) else ""
            raise ServeClientError(status, "unhealthy", str(message))
        assert isinstance(decoded, dict)
        return decoded

    def health_document(self) -> tuple[int, dict]:
        """(status code, body) without raising — for readiness probes."""
        status, decoded, _, _ = self._request("GET", "/healthz")
        return status, decoded if isinstance(decoded, dict) else {}

    def models(self) -> dict:
        result = self._request_ok("GET", "/v1/models")[0]
        assert isinstance(result, dict)
        return result

    def metrics_text(self) -> str:
        status, decoded, _, _ = self._request("GET", "/metrics")
        if status != 200:
            raise ServeClientError(status, "metrics", str(decoded)[:200])
        assert isinstance(decoded, str)
        return decoded
