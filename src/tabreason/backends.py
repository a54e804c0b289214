"""Generation backends: an OpenAI-compatible HTTP client and a replay stub.

Replay scripts are JSONL files of ``{"key"?, "response", "finish_reason",
"error"?}`` objects.  With keys present the backend serves each request by
looking up a hash of its normalized prompt, which keeps multi-threaded runs
deterministic; without keys it plays responses back in order.  A recording
wrapper captures live traffic in the same format so any run can be replayed
later: a call that failed is kept as an entry with an empty ``error``
generation and the failure's text in ``error``, and replaying it raises
:class:`BackendUnavailable` with that text.
The HTTP client's modules are imported where a request needs them.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import threading
import time
import urllib.parse
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .jsonl import check_fields, from_fields, read_jsonl, write_jsonl

logger = logging.getLogger(__name__)

FINISH_REASONS = ("stop", "length", "error")


class BackendUnavailable(RuntimeError):
    """The HTTP endpoint kept failing after all retry attempts."""


class ScriptExhausted(RuntimeError):
    """The replay script has no response left for this request."""


class ScriptMismatch(RuntimeError):
    """The request does not match any key in the replay script."""


BACKEND_FAILURES = (BackendUnavailable, ScriptExhausted, ScriptMismatch)


@dataclass(frozen=True)
class GenerationRequest:
    messages: Tuple[Dict[str, str], ...]
    max_new_tokens: int = 1024
    temperature: float = 0.0
    stop: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        check_fields(self, (
            ("max_new_tokens", self.max_new_tokens > 0, "must be positive"),
            ("temperature", 0 <= self.temperature < math.inf, "must be finite and non-negative"),
        ))
        object.__setattr__(self, "messages", tuple(dict(m) for m in self.messages))
        if self.stop is not None:
            object.__setattr__(self, "stop", tuple(self.stop))

    @classmethod
    def single_user(cls, content: str, **options: object) -> "GenerationRequest":
        return cls(messages=({"role": "user", "content": content},), **options)


@dataclass(frozen=True)
class GenerationResult:
    """A completed generation; ``attempts`` counts the requests it took."""

    text: str
    finish_reason: str = "stop"
    attempts: int = 1

    def __post_init__(self) -> None:
        _check_generation(self.text, self.finish_reason)
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")


def _check_generation(text: object, finish_reason: object) -> None:
    """Raise ``ValueError`` unless ``text`` and ``finish_reason`` form a valid generation.

    The text is a ``str``, the reason one of :data:`FINISH_REASONS`, and only
    an ``error`` generation may be empty.
    """
    if not isinstance(text, str):
        raise ValueError("text must be a str, got %s" % type(text).__name__)
    if finish_reason not in FINISH_REASONS:
        raise ValueError(
            "finish_reason must be one of %s, got %r" % (FINISH_REASONS, finish_reason)
        )
    if not text and finish_reason != "error":
        raise ValueError("empty text requires finish_reason 'error'")


class CallCounter:
    """Thread-safe count of completed generation calls."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.total = 0

    def record(self, tag: Optional[str] = None) -> None:
        """Count one call; ``tag`` names the caller's item and is not kept."""
        with self._lock:
            self.total += 1


def request_key(messages: Sequence[Dict[str, str]]) -> str:
    """Stable hash of a request's messages, insensitive to whitespace runs."""
    import hashlib
    canonical = "\n".join(
        "%s: %s" % (m.get("role", ""), m.get("content", "")) for m in messages
    )
    collapsed = " ".join(canonical.split())
    return hashlib.sha256(collapsed.encode("utf-8")).hexdigest()


class Backend:
    """Base class wiring the shared call counter.

    ``in_call_order`` is true for a backend that answers each call by its
    place in the sequence of calls, which only one worker can keep.  It is
    true unless a backend says otherwise, so one that does not say is never
    called from several workers.
    """

    in_call_order = True

    def __init__(self) -> None:
        self.counter = CallCounter()

    def generate(
        self, request: GenerationRequest, tag: Optional[str] = None
    ) -> GenerationResult:
        raise NotImplementedError


@dataclass(frozen=True)
class ScriptEntry:
    """One scripted generation; it obeys the same rule as :class:`GenerationResult`.

    An entry with ``error`` is a recorded failure: its response is empty and
    its finish reason ``error``.
    """

    response: str
    finish_reason: str = "stop"
    key: Optional[str] = None
    error: Optional[str] = None

    def __post_init__(self) -> None:
        _check_generation(self.response, self.finish_reason)
        if self.error is not None and (self.response or self.finish_reason != "error"):
            raise ValueError("an entry with an error needs an empty response and finish_reason 'error'")

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {} if self.key is None else {"key": self.key}
        record.update(response=self.response, finish_reason=self.finish_reason)
        if self.error is not None:
            record["error"] = self.error
        return record


def load_script(path: str) -> List[ScriptEntry]:
    return read_jsonl(path, functools.partial(from_fields, ScriptEntry), "script line")


def write_script(entries: Sequence[ScriptEntry], path: str) -> None:
    write_jsonl(path, (entry.to_dict() for entry in entries))


class ReplayBackend(Backend):
    """Serve generations from a recorded script instead of a live model.

    Keyed scripts (every entry carries a ``key``) are matched by prompt hash
    and are safe under concurrency; unkeyed scripts play back strictly in
    call order, which only a single worker keeps.  Text is
    served verbatim: ``stop`` strings in the request are not applied.
    """

    def __init__(self, entries: Sequence[ScriptEntry]) -> None:
        super().__init__()
        self._lock = threading.Lock()
        self.keyed = bool(entries) and all(e.key is not None for e in entries)
        self.in_call_order = not self.keyed
        # One queue per key; an unkeyed script is the single queue under ``None``.
        self._queues: Dict[Optional[str], Deque[ScriptEntry]] = {} if self.keyed else {None: deque()}
        for entry in entries:
            self._queues.setdefault(entry.key if self.keyed else None, deque()).append(entry)

    @classmethod
    def from_script(cls, path: str) -> "ReplayBackend":
        return cls(load_script(path))

    @classmethod
    def from_texts(cls, texts: Sequence[str]) -> "ReplayBackend":
        return cls([ScriptEntry(response=t) for t in texts])

    def generate(
        self, request: GenerationRequest, tag: Optional[str] = None
    ) -> GenerationResult:
        key = request_key(request.messages) if self.keyed else None
        with self._lock:
            queue = self._queues.get(key)
            if queue is None:
                raise ScriptMismatch("no scripted response for key %.12s" % key)
            if not queue:
                raise ScriptExhausted("replay script has no responses left" if key is None
                                      else "scripted responses for key %.12s used up" % key)
            entry = queue.popleft()
        if entry.error is not None:
            raise BackendUnavailable(entry.error)
        result = GenerationResult(text=entry.response, finish_reason=entry.finish_reason)
        self.counter.record(tag)
        return result


class RecordingBackend(Backend):
    """Wrap another backend and capture its traffic, failures included, as a replay script."""

    def __init__(self, inner: Backend) -> None:
        super().__init__()
        self.inner = inner
        self.in_call_order = inner.in_call_order
        self._lock = threading.Lock()
        self._entries: List[ScriptEntry] = []

    def generate(
        self, request: GenerationRequest, tag: Optional[str] = None
    ) -> GenerationResult:
        key = request_key(request.messages)
        try:
            result = self.inner.generate(request, tag=tag)
        except BACKEND_FAILURES as exc:
            self._keep(ScriptEntry(response="", finish_reason="error", key=key, error=str(exc)))
            raise
        self._keep(ScriptEntry(response=result.text, finish_reason=result.finish_reason, key=key))
        self.counter.record(tag)
        return result

    def _keep(self, entry: ScriptEntry) -> None:
        with self._lock:
            self._entries.append(entry)

    def write_script(self, path: str) -> None:
        with self._lock:
            entries = list(self._entries)
        write_script(entries, path)


@dataclass(frozen=True)
class HttpConfig:
    base_url: str
    model: str
    api_key_env: str = "OPENAI_API_KEY"
    timeout: float = 120.0

    def __post_init__(self) -> None:
        url_fault = _base_url_fault(self.base_url)
        check_fields(self, (
            ("base_url", url_fault is None, url_fault),
            ("timeout", self.timeout > 0, "must be positive"),
            ("timeout", math.isfinite(self.timeout), "must be finite"),
        ))


def _base_url_fault(url: str) -> Optional[str]:
    """The rule ``url`` breaks as a ``base_url``, or None when it is usable."""
    if not url.startswith(("http://", "https://")):
        return "must start with http:// or https://"
    try:
        parts = urllib.parse.urlsplit(url)
        parts.port  # raises on a port that is not a number in range
    except ValueError as exc:
        return "must be a valid URL: %s" % exc
    if not parts.hostname:
        return "must have a host"
    return None


def _retry_after_seconds(value: Optional[str]) -> Optional[float]:
    """The delay a ``Retry-After`` header asks for, or None when it is unusable.

    RFC 9110 section 10.2.3 allows delay-seconds or an HTTP-date.  Seconds may
    carry a fraction (some proxies send ``0.05``) but must be finite and
    non-negative; a date gives the time left until it, floored at 0.
    """
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        import email.utils
        from datetime import timezone
        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError, IndexError, OverflowError):
            return None
        if when.tzinfo is None:
            when = when.replace(tzinfo=timezone.utc)
        return max(0.0, when.timestamp() - time.time())
    if not math.isfinite(seconds) or seconds < 0:
        return None
    return seconds


def _readable(sock: socket.socket) -> bool:
    """Whether ``sock`` has something to read now without waiting.

    An idle keep-alive socket that is readable is spent: the peer closed it,
    or sent bytes no request asked for.
    """
    import select
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


# The retry policy: how many requests one call may make, and the first wait
# after a failed one when the response names no usable ``Retry-After``.
MAX_ATTEMPTS = 3
BACKOFF_BASE = 1.0


class HttpBackend(Backend):
    """OpenAI-compatible chat-completions client with retry and backoff.

    Requests go over keep-alive connections from a pool that every thread
    calling this backend shares; :meth:`close` closes the idle ones.  An idle
    connection the server has closed is dropped before it is reused.  The
    proxy is resolved once, when the backend is built, from
    ``http_proxy``/``https_proxy``/``no_proxy`` (or the platform's settings)
    through :mod:`urllib.request`, and a proxy that is not an ``http://`` URL
    raises ``ValueError`` there.  An ``http`` target behind a proxy is sent
    to it in absolute form; an ``https`` target is tunnelled with
    ``CONNECT``.  TLS is verified against the default SSL context, which
    honours ``SSL_CERT_FILE`` and ``SSL_CERT_DIR``, and no ``.netrc`` file is
    read.

    The bearer token is read from the environment variable named by
    ``config.api_key_env`` at call time.  Connection errors, timeouts, HTTP
    429 and HTTP 5xx are retried: after :data:`MAX_ATTEMPTS` attempts
    :class:`BackendUnavailable` is raised.  Before each retry the client
    sleeps as long as the response's ``Retry-After`` header asks, capped at
    ``timeout``; without a usable header it sleeps ``BACKOFF_BASE * 2**(n-1)``
    seconds after the n-th attempt.  Other HTTP statuses and requests that
    cannot be sent at all (a URL or header that ``http.client`` refuses) fail
    on the first attempt.
    """

    in_call_order = False

    def __init__(self, config: HttpConfig) -> None:
        import base64
        import ssl
        import urllib.request
        super().__init__()
        self.config = config
        self._lock = threading.Lock()
        self._idle: List[http.client.HTTPConnection] = []
        url = config.base_url.rstrip("/") + "/chat/completions"
        parts = urllib.parse.urlsplit(url)
        self._https = parts.scheme == "https"
        self._host: str = parts.hostname or ""
        self._port = parts.port or (443 if self._https else 80)
        self._target = urllib.parse.urlunsplit(("", "", parts.path, parts.query, ""))
        self._proxy: Optional[Tuple[str, int]] = None
        self._proxy_headers: Dict[str, str] = {}
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(self._host):
            via = urllib.parse.urlsplit(proxy if "://" in proxy else "http://" + proxy)
            if via.scheme != "http" or not via.hostname:
                raise ValueError("%s_proxy must be an http:// URL with a host, got %r"
                                 % (parts.scheme, proxy))
            self._proxy = (via.hostname, via.port or 80)
            if via.username:
                user = "%s:%s" % (urllib.parse.unquote(via.username),
                                  urllib.parse.unquote(via.password or ""))
                self._proxy_headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(user.encode("utf-8")).decode("ascii"))
            if not self._https:
                self._target = url
        self._tls = ssl.create_default_context() if self._https else None

    def close(self) -> None:
        """Close the idle connections; later calls open new ones."""
        with self._lock:
            while self._idle:
                self._idle.pop().close()

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.config.api_key_env, "")
        if token:
            headers["Authorization"] = "Bearer %s" % token
        return headers

    def _connection(self) -> http.client.HTTPConnection:
        """An idle connection the server has not closed, else a new one, not yet connected."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                conn = self._idle.pop()
            if not _readable(conn.sock):
                return conn
            conn.close()
        import http.client
        host, port = self._proxy or (self._host, self._port)
        if not self._https:
            return http.client.HTTPConnection(host, port, timeout=self.config.timeout)
        conn = http.client.HTTPSConnection(host, port, timeout=self.config.timeout, context=self._tls)
        if self._proxy is not None:
            conn.set_tunnel(self._host, self._port, self._proxy_headers)
        return conn

    def _post(
        self, body: bytes, headers: Dict[str, str]
    ) -> Tuple[http.client.HTTPResponse, bytes]:
        """POST ``body`` once and read the whole response."""
        import socket
        conn = self._connection()
        try:
            if conn.sock is None:
                conn.connect()
                # as urllib3 does: never let Nagle hold back a request's tail
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._proxy is not None and not self._https:
                headers = {**headers, **self._proxy_headers}
            conn.request("POST", self._target, body, headers)
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return response, data

    def _retry_delay(self, attempt: int, retry_after: Optional[str]) -> Tuple[float, str]:
        """Seconds to wait after failed attempt ``attempt`` (from 1), and why."""
        asked = _retry_after_seconds(retry_after)
        if asked is None:
            return BACKOFF_BASE * (2 ** (attempt - 1)), "backoff"
        return min(asked, self.config.timeout), "Retry-After"

    def generate(
        self, request: GenerationRequest, tag: Optional[str] = None
    ) -> GenerationResult:
        import http.client
        payload: Dict[str, object] = {
            "model": self.config.model,
            "messages": list(request.messages),
            "temperature": request.temperature,
            "max_tokens": request.max_new_tokens,
        }
        if request.stop:
            payload["stop"] = list(request.stop)
        body = json.dumps(payload).encode("utf-8")
        for attempt in range(1, MAX_ATTEMPTS + 1):
            retry_after: Optional[str] = None
            try:
                response, data = self._post(body, self._headers())
            except (ValueError, http.client.InvalidURL) as exc:
                # a URL or header http.client refuses: no retry can cure it
                raise BackendUnavailable("request cannot be sent: %s" % exc)
            except (OSError, http.client.HTTPException) as exc:
                last_error = "request failed: %s" % exc
            else:
                if response.status != 429 and response.status < 500:
                    break
                last_error = "HTTP %d" % response.status
                retry_after = response.getheader("Retry-After")
            if attempt == MAX_ATTEMPTS:
                raise BackendUnavailable("gave up after %d attempts (%s)" % (MAX_ATTEMPTS, last_error))
            delay, source = self._retry_delay(attempt, retry_after)
            logger.warning(
                "attempt %d/%d %s; retrying in %.2f s (%s)",
                attempt, MAX_ATTEMPTS, last_error, delay, source,
            )
            time.sleep(delay)
        if response.status != 200:
            raise BackendUnavailable(
                "endpoint rejected request: HTTP %d %s"
                % (response.status, data.decode("utf-8", "replace")[:200])
            )
        try:
            completion = json.loads(data)
            choice = completion["choices"][0]
            text = choice["message"]["content"]
            if not isinstance(text, (str, type(None))):
                raise TypeError("content must be a string or null, got %s" % type(text).__name__)
            text = text or ""
            finish = choice.get("finish_reason", "stop")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendUnavailable("malformed completion payload: %s" % exc)
        if finish not in FINISH_REASONS:
            finish = "stop"
        if not text:
            finish = "error"
        result = GenerationResult(text=text, finish_reason=finish, attempts=attempt)
        self.counter.record(tag)
        return result
