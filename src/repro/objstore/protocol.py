"""Object-store wire protocol (HTTP-shaped, binary-simple)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

OBJECT_PORT = 8080
HEADER = 64  # request/response framing bytes


@dataclass
class PutRequest:
    bucket: str
    key: str
    size: int
    data: Optional[bytes] = None
    request_id: int = 0

    @property
    def wire_size(self) -> int:
        return HEADER + len(self.bucket) + len(self.key) + self.size


@dataclass
class GetRequest:
    bucket: str
    key: str
    request_id: int = 0

    @property
    def wire_size(self) -> int:
        return HEADER + len(self.bucket) + len(self.key)


@dataclass
class DeleteRequest:
    bucket: str
    key: str
    request_id: int = 0

    @property
    def wire_size(self) -> int:
        return HEADER + len(self.bucket) + len(self.key)


@dataclass
class ListRequest:
    bucket: str
    request_id: int = 0

    @property
    def wire_size(self) -> int:
        return HEADER + len(self.bucket)


@dataclass
class ObjectResponse:
    request_id: int
    status: str  # "ok" | "not-found" | "error"
    size: int = 0
    data: Optional[bytes] = None
    keys: Optional[list[str]] = None
    #: object identity, so positional services (encryption) can derive
    #: a deterministic tweak for GET payloads
    bucket: str = ""
    key: str = ""

    @property
    def wire_size(self) -> int:
        listing = sum(len(k) for k in self.keys) if self.keys else 0
        return HEADER + self.size + listing
