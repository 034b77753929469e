"""Host-side object-store client.

Like the iSCSI initiator, the client runs on the *compute host* and
connects over the storage network, so StorM's splicing (host NAT →
gateways → steered middle-boxes) applies to object flows unchanged —
just on the object port.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.net.stack import NetworkStack
from repro.net.tcp import EOF, RESET, TcpSocket
from repro.objstore.protocol import (
    DeleteRequest,
    GetRequest,
    ListRequest,
    OBJECT_PORT,
    PutRequest,
)
from repro.sim import Event, Simulator


class ObjectStoreDead(Exception):
    """The object connection was reset."""


class ObjectStoreSession:
    """One connection to one object server."""

    def __init__(self, sim: Simulator, socket: TcpSocket):
        self.sim = sim
        self.socket = socket
        self.local_port = socket.local_port
        self.alive = True
        self._pending: dict[int, Event] = {}
        self._request_ids = itertools.count(1)
        sim.process(self._receiver(), name="objstore-rx")

    def _issue(self, request) -> Event:
        if not self.alive:
            raise ObjectStoreDead("session is down")
        request.request_id = next(self._request_ids)
        done = self.sim.event()
        self._pending[request.request_id] = done
        self.socket.send(request, request.wire_size)
        return done

    def put(self, bucket: str, key: str, data: Optional[bytes] = None, size: Optional[int] = None) -> Event:
        if data is None and size is None:
            raise ValueError("put needs data or size")
        size = len(data) if data is not None else size
        return self._issue(PutRequest(bucket, key, size, data))

    def get(self, bucket: str, key: str) -> Event:
        return self._issue(GetRequest(bucket, key))

    def delete(self, bucket: str, key: str) -> Event:
        return self._issue(DeleteRequest(bucket, key))

    def list(self, bucket: str) -> Event:
        return self._issue(ListRequest(bucket))

    def close(self) -> None:
        self.alive = False
        self.socket.close()

    def _receiver(self):
        while True:
            got = yield self.socket.recv()
            if got is RESET or got is EOF:
                self.alive = False
                pending, self._pending = self._pending, {}
                for event in pending.values():
                    if not event.triggered:
                        event.fail(ObjectStoreDead("connection lost"))
                return
            response, _size = got
            event = self._pending.pop(response.request_id, None)
            if event is not None:
                event.succeed(response)


class ObjectStoreClient:
    """Factory for object sessions from one compute host."""

    def __init__(
        self,
        sim: Simulator,
        stack: NetworkStack,
        local_ip: str,
        mss: int = 4096,
        window: int = 65536,
    ):
        self.sim = sim
        self.stack = stack
        self.local_ip = local_ip
        self.mss = mss
        self.window = window
        self.sessions: list[ObjectStoreSession] = []

    def connect(self, server_ip: str, port: int = OBJECT_PORT):
        """Process: returns an established ObjectStoreSession."""
        socket = TcpSocket(
            self.sim,
            self.stack,
            local_ip=self.local_ip,
            local_port=self.stack.allocate_port(),
            mss=self.mss,
            window=self.window,
        )
        yield socket.connect(server_ip, port)
        session = ObjectStoreSession(self.sim, socket)
        # end-to-end probe (like iSCSI's login): proves the whole path —
        # including any spliced middle-box chain — is established before
        # the connect returns.  StorM's atomic attach depends on this.
        probe = yield session.list("__connect_probe__")
        if probe.status != "ok":
            raise ObjectStoreDead(f"connection probe failed: {probe.status}")
        self.sessions.append(session)
        return session
