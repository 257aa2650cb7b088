"""Minimal HTTP/1.1 over asyncio streams — no dependencies.

The sweep service needs exactly four things from HTTP: parse a request
(line, headers, Content-Length body), send a complete JSON response,
send an error with a status code and optional ``Retry-After``, and
stream an open-ended NDJSON/SSE body. This module hand-rolls those
over ``asyncio.StreamReader``/``StreamWriter`` so the daemon has no
hard dependency beyond the stdlib.

Streaming responses are close-delimited (``Connection: close``, no
``Content-Length``), which HTTP/1.1 permits for responses and which
keeps both our own client and ``curl`` trivially compatible: read
lines until EOF.

Everything here is transport-shaped and policy-free; routing, rate
limiting and scheduling live in :mod:`repro.service.server`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError


class ProtocolError(ReproError):
    """A malformed or over-limit HTTP request."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


#: Hard request limits: a sweep spec is small; anything bigger is abuse.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 1024 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""

    def json(self) -> Any:
        """The body decoded as JSON (raises :class:`ProtocolError`)."""
        if not self.body:
            raise ProtocolError("request body is empty; expected JSON")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")

    @property
    def wants_sse(self) -> bool:
        """Did the client ask for Server-Sent Events framing?"""
        return "text/event-stream" in self.headers.get("accept", "")


async def read_request(
    reader, max_body: int = MAX_BODY_BYTES
) -> Optional[Request]:
    """Parse one request; ``None`` on a clean EOF before any bytes."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise ProtocolError("truncated request line")
    except asyncio.LimitOverrunError:
        raise ProtocolError("request line too long", status=413)
    if len(line) > MAX_REQUEST_LINE:
        raise ProtocolError("request line too long", status=413)
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {line!r}")
    method, target = parts[0].upper(), parts[1]
    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. an unclosed "[" IPv6 host
        raise ProtocolError(f"malformed request target: {exc}")
    query = {
        name: values[-1]
        for name, values in parse_qs(split.query).items()
    }

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except asyncio.IncompleteReadError:
            raise ProtocolError("truncated headers")
        except asyncio.LimitOverrunError:
            raise ProtocolError("header line too long", status=413)
        if line in (b"\r\n", b"\n"):
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise ProtocolError("headers too large", status=413)
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise ProtocolError("conflicting Content-Length headers")
        headers[name] = value

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        # ASCII digits only: int() would also take "+5", "0_5" and "-0".
        if not (length_text.isascii() and length_text.isdigit()):
            raise ProtocolError(f"bad Content-Length: {length_text!r}")
        # Bound the digit count before int(): it refuses very long
        # digit strings (sys.int_info.default_max_str_digits).
        digits = length_text.lstrip("0") or "0"
        if len(digits) > 18 or int(digits) > max_body:
            raise ProtocolError(
                f"request body of {digits} bytes exceeds the "
                f"{max_body}-byte limit", status=413,
            )
        length = int(digits)
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError("truncated request body")
    elif "chunked" in headers.get("transfer-encoding", ""):
        raise ProtocolError("chunked request bodies are not supported")
    return Request(
        method=method, path=split.path, query=query, headers=headers,
        body=body,
    )


def _head(
    status: int, headers: Dict[str, str], length: Optional[int]
) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    if length is not None:
        lines.append(f"Content-Length: {length}")
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_json(
    writer,
    status: int,
    payload: Any,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """Send one complete JSON response and flush."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if extra_headers:
        headers.update(extra_headers)
    writer.write(_head(status, headers, len(body)) + body)
    await writer.drain()


async def send_error(
    writer,
    status: int,
    message: str,
    kind: str = "config",
    exit_code: Optional[int] = None,
    retry_after: Optional[float] = None,
    retryable: Optional[bool] = None,
) -> None:
    """Send the service's uniform error payload.

    The payload mirrors the CLI's exit-code contract
    (``docs/robustness.md``): ``kind`` is ``config`` (exit code 2 —
    rejecting the request as malformed) or ``execution`` (exit code 3
    — the work was accepted but failed), and ``retryable`` says
    whether resubmitting the identical request can succeed.
    """
    if exit_code is None:
        exit_code = 2 if kind == "config" else 3
    if retryable is None:
        retryable = kind != "config"
    payload: Dict[str, Any] = {
        "error": {
            "kind": kind,
            "exit_code": exit_code,
            "message": message,
            "retryable": retryable,
        }
    }
    headers: Dict[str, str] = {}
    if retry_after is not None:
        # Integral seconds, rounded up: Retry-After takes whole numbers.
        headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
        payload["error"]["retry_after"] = float(headers["Retry-After"])
    await send_json(writer, status, payload, extra_headers=headers)


@dataclass
class EventStream:
    """An open-ended event response: NDJSON lines, or SSE framing.

    One JSON-able event dict per :meth:`send`; the body is
    close-delimited, so :meth:`close` ends the response.
    """

    writer: Any
    sse: bool = False
    started: bool = field(default=False, init=False)

    async def start(self, extra_headers: Optional[Dict[str, str]] = None):
        content_type = (
            "text/event-stream" if self.sse else "application/x-ndjson"
        )
        headers = {"Content-Type": content_type, "Cache-Control": "no-store"}
        if extra_headers:
            headers.update(extra_headers)
        self.writer.write(_head(200, headers, None))
        await self.writer.drain()
        self.started = True

    async def send(self, event: Dict[str, Any]) -> None:
        line = json.dumps(event, sort_keys=True)
        if self.sse:
            payload = f"data: {line}\n\n"
        else:
            payload = line + "\n"
        self.writer.write(payload.encode("utf-8"))
        await self.writer.drain()

    async def close(self) -> None:
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


__all__ = [
    "EventStream",
    "MAX_BODY_BYTES",
    "ProtocolError",
    "Request",
    "read_request",
    "send_error",
    "send_json",
]
