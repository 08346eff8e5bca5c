"""One JSON-over-HTTP round trip for every client of the service tier.

``repro submit``/``fetch``, workers, ``repro top``/``spans``, the chaos
harness and the remote cache tier all talk to a server through this
module, under one failure rule:

**Failure rule.**  A request either gets an answer or raises
:class:`ServiceUnavailable`.  An *answer* is any HTTP status, errors
included: :func:`round_trip` returns ``(status, headers, body)`` and
leaves the status to the caller.  A *connection-level fault* raises:
a refused, reset or timed-out connection (``OSError``, which covers
``socket.timeout``), a reply cut off mid-body (``http.client``'s
``IncompleteRead`` and other ``HTTPException``\\ s, which are not
``OSError``), or a URL ``urllib`` cannot open (``ValueError``).  An
error reply whose body is cut off still returns its status, with
whatever could not be read left empty: the status line already says
how the server answered.

:func:`json_round_trip` adds one JSON reader on top.  A success reply
(status below 400) whose body does not decode to a JSON object raises
:class:`ServiceUnavailable` too, so a caller never sees a list, a
number or half a document.  An error reply reads as the server's error
object, or ``{"error": "HTTP <status>"}`` when the body is not one, and
always carries its ``status``.  :func:`get_json` is the GET for callers
to whom an error status is a failure like any other: it raises
:class:`ServiceUnavailable` for it as well.

Callers keep their own timeouts and their own policy on failure: the
transport retries, heartbeats are best-effort, the remote cache tier
reads trouble as a miss and ``repro top`` retries before it gives up.
This module imports no other ``repro`` module, and it imports
``urllib`` on the first request: a process that never talks HTTP (a
local sweep, the service's own server) does not pay for it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:
    from email.message import Message

#: Seconds allowed for one round trip unless the caller says otherwise.
REQUEST_TIMEOUT = 10.0


class ServiceUnavailable(OSError):
    """The service endpoint cannot be reached (or returned junk)."""


def round_trip(url: str, body: Optional[bytes] = None,
               headers: Optional[dict] = None,
               timeout: float = REQUEST_TIMEOUT
               ) -> Tuple[int, Message, bytes]:
    """``(status, headers, body)`` of one request: a POST of ``body``,
    or a GET when it is ``None``.  Raises :class:`ServiceUnavailable`
    on a connection-level fault (see the failure rule)."""
    import http.client
    import urllib.error
    import urllib.request

    try:
        request = urllib.request.Request(url, data=body,
                                         headers=headers or {})
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as error:
        try:
            payload = error.read()
        except (OSError, http.client.HTTPException):
            payload = b""
        finally:
            error.close()
        return error.code, error.headers, payload
    except (OSError, http.client.HTTPException, ValueError) as error:
        raise ServiceUnavailable(f"{type(error).__name__}: {error}") from None


def json_round_trip(url: str, document: Optional[dict] = None,
                    headers: Optional[dict] = None,
                    timeout: float = REQUEST_TIMEOUT
                    ) -> Tuple[int, Message, dict]:
    """``(status, headers, reply)``: POST ``document`` as sorted-key
    JSON, or GET when it is ``None``; ``reply`` is always an object."""
    body = None
    merged = dict(headers or {})
    if document is not None:
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        merged = {"Content-Type": "application/json", **merged}
    status, reply_headers, raw = round_trip(url, body, merged, timeout)
    try:
        reply = json.loads(raw)
    except ValueError:
        reply = None
    if status >= 400:
        if not isinstance(reply, dict):
            reply = {"error": f"HTTP {status}"}
        reply.setdefault("status", status)
    elif not isinstance(reply, dict):
        raise ServiceUnavailable(
            f"HTTP {status} reply is not a JSON object")
    return status, reply_headers, reply


def get_json(url: str, headers: Optional[dict] = None,
             timeout: float = REQUEST_TIMEOUT) -> dict:
    """The JSON object at ``url``; an error status raises
    :class:`ServiceUnavailable` like a connection fault."""
    status, _, reply = json_round_trip(url, None, headers, timeout)
    if status >= 400:
        raise ServiceUnavailable(f"HTTP {status}")
    return reply
