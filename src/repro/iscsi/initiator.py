"""Host-side iSCSI initiator.

Runs on the *compute host* (as Open-iSCSI does), so the TCP 4-tuple of
a storage connection bears host addresses — the obfuscation StorM's
connection attribution must undo.  ``login_hooks`` is the reproduction
of the paper's modification to the iSCSI "Login Session" code: it
exposes the (IQN, source port) pair of every new session.

Sessions recover the way Open-iSCSI's replacement timeout does: when
the TCP connection dies the session re-logs-in with bounded exponential
backoff — **reusing the same source port**, so gateway conntrack
entries and narrowed steering rules keep matching the reconnected flow
— and re-issues every pending command in task-tag order.  Commands
issued while the session is down are queued and ride the same replay.
Only when every attempt fails does the session fall back to failing all
pending commands (`SessionDead`).  A consumer that keeps its own
durable state and must see transport death (the replication service's
replica sessions) sets :attr:`IscsiSession.recover` to False.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.integrity import IntegrityError
from repro.iscsi.pdu import (
    DataInPdu,
    ISCSI_PORT,
    LoginRequestPdu,
    LoginResponsePdu,
    ScsiCommandPdu,
    ScsiResponsePdu,
)
from repro.net.stack import NetworkStack
from repro.net.tcp import ConnectionReset, EOF, RESET, TcpSocket
from repro.sim import Event, Simulator


class SessionDead(Exception):
    """The session's TCP connection was reset or closed."""


class LoginFailed(Exception):
    """The target rejected the login (unknown IQN)."""


class IscsiSession:
    """One logged-in connection to one target IQN (one volume)."""

    def __init__(
        self,
        sim: Simulator,
        socket: TcpSocket,
        target_iqn: str,
        initiator_iqn: str = "iqn.2016-01.org.repro:initiator",
        max_relogins: int = 5,
        relogin_backoff: float = 0.05,
        login_timeout: float = 1.0,
        obs=None,
        integrity=None,
    ):
        self.sim = sim
        self.socket = socket
        self.target_iqn = target_iqn
        self.initiator_iqn = initiator_iqn
        self.local_port = socket.local_port
        self.target_ip = socket.remote_ip
        self.target_port = socket.remote_port or ISCSI_PORT
        #: re-login automatically when the connection resets; a consumer
        #: that must see transport death as `SessionDead` turns it off
        self.recover = True
        self.max_relogins = max_relogins
        self.relogin_backoff = relogin_backoff
        self.login_timeout = login_timeout
        #: observability bus; when set, every command runs under a span
        #: whose context rides the PDU across the chain, and re-logins
        #: emit ``recover.*`` events.  None = no-op.
        self.obs = obs
        #: :class:`repro.integrity.IntegrityLayer`; when set, commands
        #: are stamped at issue, Data-In payloads verified on arrival,
        #: and verified-corrupt commands retried with fresh stamps.
        self.integrity = integrity
        self.integrity_retries = 0
        self.alive = True
        self._closed = False
        self._pending: dict[int, dict] = {}
        sim.process(self._receiver(), name=f"iscsi-rx:{target_iqn}")
        self.reads_completed = 0
        self.writes_completed = 0
        self.relogins = 0
        self.commands_reissued = 0

    # -- I/O interface ------------------------------------------------

    def read(self, offset: int, length: int) -> Event:
        """Returns an event yielding the read payload bytes (or None)."""
        return self._issue(ScsiCommandPdu("read", offset, length, next(self.sim.task_tags)))

    def write(self, offset: int, length: int, data: Optional[bytes] = None) -> Event:
        """Returns an event that fires when the target acknowledges."""
        return self._issue(ScsiCommandPdu("write", offset, length, next(self.sim.task_tags), data))

    def _issue(self, command: ScsiCommandPdu) -> Event:
        if not self.alive:
            raise SessionDead(f"session to {self.target_iqn} is down")
        done = self.sim.event()
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.span(
                f"iscsi.{command.op}",
                target=self.target_iqn,
                offset=command.offset,
                length=command.length,
            )
            command.ctx = span.context()
        if self.integrity is not None:
            self.integrity.stamp(command, self.target_iqn, "upstream", "initiator")
        self._pending[command.task_tag] = {
            "event": done,
            "data": None,
            "op": command.op,
            "command": command,
            "span": span,
            # retry material: services rebind pdu.data in flight on the
            # same object this table aliases, so retries rebuild a fresh
            # PDU from the payload as issued
            "pristine": command.data,
            "tainted": False,
            "iretries": 0,
        }
        try:
            self.socket.send(command, command.wire_size)
        except ConnectionReset:
            if not self.recover:
                del self._pending[command.task_tag]
                raise SessionDead(f"session to {self.target_iqn} is down")
            # recovery pending: the command stays queued and is sent by
            # the re-login replay in task-tag order
        return done

    def close(self) -> None:
        self.alive = False
        self._closed = True
        self.socket.close()

    def reset(self) -> None:
        """Abort the session (failure injection)."""
        self.socket.reset()

    # -- receive path ----------------------------------------------------

    def _receiver(self):
        while True:
            got = yield self.socket.recv()
            if got is RESET or got is EOF:
                if got is RESET and self.recover and not self._closed:
                    ok = yield from self._relogin_attempts()
                    if ok:
                        continue
                self._fail_all()
                return
            pdu, _size = got
            if isinstance(pdu, DataInPdu):
                record = self._pending.get(pdu.task_tag)
                if record is not None:
                    if self.integrity is not None:
                        bad = self.integrity.verify(
                            pdu, self.target_iqn, "downstream", where="initiator"
                        )
                        if bad is not None:
                            # verified-corrupt read payload: taint the
                            # command; the matching response triggers a
                            # retry instead of delivering garbage
                            record["tainted"] = True
                            record["data"] = None
                            continue
                    record["data"] = pdu.data
            elif isinstance(pdu, ScsiResponsePdu):
                record = self._pending.pop(pdu.task_tag, None)
                if record is None:
                    continue
                if self.integrity is not None and (
                    pdu.status == "check-integrity"
                    or (pdu.status == "good" and record["tainted"])
                ):
                    # SCSI check condition (target-side detection) or a
                    # tainted read: re-drive the command end-to-end with
                    # a fresh stamp, bounded by the layer's retry budget
                    if record["iretries"] < self.integrity.max_retries:
                        self._integrity_retry(record)
                        continue
                    span = record["span"]
                    if span is not None:
                        span.finish("integrity-failed")
                    record["event"].fail(
                        IntegrityError(
                            f"{record['op']} to {self.target_iqn} still "
                            f"corrupt after {record['iretries']} retries"
                        )
                    )
                    continue
                if record["op"] == "read":
                    self.reads_completed += 1
                else:
                    self.writes_completed += 1
                span = record["span"]
                if span is not None:
                    span.finish("ok" if pdu.status == "good" else "error")
                if pdu.status == "good":
                    record["event"].succeed(record["data"])
                else:
                    record["event"].fail(SessionDead(f"I/O error: {pdu.status}"))

    def _integrity_retry(self, record: dict) -> None:
        """Re-drive one verified-corrupt command: fresh PDU built from
        the payload as issued (in-flight transforms rebind ``data`` on
        the aliased object), fresh stamp (sequence numbers never
        repeat, so the retry is not itself flagged as a replay), same
        task tag (the pending table keeps matching)."""
        old = record["command"]
        data = record["pristine"] if old.op == "write" else None
        command = ScsiCommandPdu(old.op, old.offset, old.length, old.task_tag, data)
        command.ctx = old.ctx
        self.integrity.stamp(command, self.target_iqn, "upstream", "initiator")
        record["command"] = command
        record["data"] = None
        record["tainted"] = False
        record["iretries"] += 1
        self._pending[command.task_tag] = record
        self.integrity_retries += 1
        self.integrity.retries += 1
        obs = self.integrity.obs
        if obs is not None:
            obs.event(
                "integrity.retry", target=self.target_iqn,
                op=old.op, offset=old.offset, attempt=record["iretries"],
            )
            obs.metrics.counter("integrity.retries", self.target_iqn).inc()
        try:
            self.socket.send(command, command.wire_size)
        except ConnectionReset:
            # the receiver loop sees the RESET and either replays the
            # pending table on re-login or fails everything
            pass

    # -- recovery --------------------------------------------------------

    def relogin(self):
        """Process: explicitly re-login a dead session.

        Used by consumers that keep their own durable state (e.g. the
        replication service's journal) and want the session back after
        a `_fail_all` — the automatic path (:attr:`recover`) never
        reaches `_fail_all` unless every attempt was exhausted.
        Restarts the receive loop on success.
        """
        if self._closed:
            return False
        if self.alive and self.socket.state == "established":
            return True
        ok = yield from self._relogin_attempts()
        if ok:
            self.alive = True
            self.sim.process(self._receiver(), name=f"iscsi-rx:{self.target_iqn}")
        return ok

    def _relogin_attempts(self):
        """Bounded exponential-backoff reconnect + login + replay."""
        old = self.socket
        for attempt in range(1, self.max_relogins + 1):
            yield self.sim.timeout(self.relogin_backoff * (2 ** (attempt - 1)))
            if self._closed:
                return False
            # same local port: gateway conntrack and narrowed steering
            # rules key on the 4-tuple, which must not change
            socket = TcpSocket(
                self.sim,
                old.stack,
                local_ip=old.local_ip,
                local_port=self.local_port,
                mss=old.mss,
                window=old.window,
                rto=old.rto,
                max_retransmits=old.max_retransmits,
            )
            socket.express_label = old.express_label
            try:
                established = socket.connect(self.target_ip, self.target_port)
                yield self.sim.any_of(
                    [established, self.sim.timeout(self.login_timeout, "timeout")]
                )
            except ConnectionReset:
                continue
            if socket.state != "established":
                socket.reset()
                continue
            login = LoginRequestPdu(self.initiator_iqn, self.target_iqn)
            try:
                socket.send(login, login.wire_size)
            except ConnectionReset:
                continue
            got = yield socket.recv()
            if got is RESET or got is EOF:
                continue
            response, _size = got
            if not isinstance(response, LoginResponsePdu) or response.status != "success":
                socket.reset()
                continue
            self.socket = socket
            self.relogins += 1
            if self.obs is not None:
                self.obs.event("recover.relogin", target=self.target_iqn,
                               attempt=attempt, port=self.local_port)
            self._reissue_pending()
            return True
        if self.obs is not None:
            self.obs.event("recover.relogin-failed", target=self.target_iqn)
        return False

    def _reissue_pending(self) -> None:
        """Re-send every pending command, in task-tag (issue) order.

        Writes are idempotent (same offset, same payload) and reads are
        side-effect-free, so re-execution at the target is safe; any
        partially received Data-In is discarded and re-read.
        """
        for record in self._pending.values():
            record["data"] = None
            command = record["command"]
            if self.integrity is not None:
                # rebuild from the pristine payload with a fresh stamp:
                # the original PDU object may carry in-flight transforms
                # and a consumed sequence number
                data = record["pristine"] if command.op == "write" else None
                fresh = ScsiCommandPdu(
                    command.op, command.offset, command.length,
                    command.task_tag, data,
                )
                fresh.ctx = command.ctx
                self.integrity.stamp(fresh, self.target_iqn, "upstream", "initiator")
                record["command"] = fresh
                record["tainted"] = False
                command = fresh
            self.commands_reissued += 1
            self.socket.send(command, command.wire_size)

    def _fail_all(self) -> None:
        self.alive = False
        pending, self._pending = self._pending, {}
        for record in pending.values():
            span = record.get("span")
            if span is not None:
                span.finish("lost")
            if not record["event"].triggered:
                record["event"].fail(SessionDead("connection lost"))


class IscsiInitiator:
    """Factory for sessions from one host; owns the login hook list."""

    def __init__(
        self,
        sim: Simulator,
        stack: NetworkStack,
        local_ip: str,
        initiator_iqn: str = "iqn.2016-01.org.repro:initiator",
        mss: int = 4096,
        window: int = 65536,
        rto: float = 0.05,
        max_retransmits: int = 8,
        max_relogins: int = 5,
        relogin_backoff: float = 0.05,
    ):
        self.sim = sim
        self.stack = stack
        self.local_ip = local_ip
        self.initiator_iqn = initiator_iqn
        self.mss = mss
        self.window = window
        self.rto = rto
        self.max_retransmits = max_retransmits
        self.max_relogins = max_relogins
        self.relogin_backoff = relogin_backoff
        #: observability bus, propagated to every session this factory
        #: creates (set by ``repro.obs.instrument``); None = no tracing.
        self.obs = None
        #: integrity layer, propagated likewise (set by the cloud
        #: controller when ``params.integrity``); None = no stamping.
        self.integrity = None
        self.sessions: list[IscsiSession] = []
        #: Called with (target_iqn, local_port) on every successful login —
        #: the paper's modified Login Session code path.
        self.login_hooks: list[Callable[[str, int], None]] = []

    def connect(
        self,
        target_ip: str,
        target_iqn: str,
        target_port: int = ISCSI_PORT,
    ):
        """Process: TCP connect + iSCSI login; returns an IscsiSession."""
        socket = TcpSocket(
            self.sim,
            self.stack,
            local_ip=self.local_ip,
            local_port=self.stack.allocate_port(),
            mss=self.mss,
            window=self.window,
            rto=self.rto,
            max_retransmits=self.max_retransmits,
        )
        socket.express_label = f"iscsi:{target_iqn}"
        yield socket.connect(target_ip, target_port)
        login = LoginRequestPdu(self.initiator_iqn, target_iqn)
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.span("iscsi.login", target=target_iqn)
            login.ctx = span.context()
        socket.send(login, login.wire_size)
        got = yield socket.recv()
        if got is RESET or got is EOF:
            if span is not None:
                span.finish("lost")
            raise SessionDead("connection lost during login")
        response, _size = got
        if not isinstance(response, LoginResponsePdu) or response.status != "success":
            if span is not None:
                span.finish("rejected")
            raise LoginFailed(f"login to {target_iqn} failed: {response!r}")
        if span is not None:
            span.finish("ok")
        session = IscsiSession(
            self.sim,
            socket,
            target_iqn,
            initiator_iqn=self.initiator_iqn,
            max_relogins=self.max_relogins,
            relogin_backoff=self.relogin_backoff,
            obs=obs,
            integrity=self.integrity,
        )
        self.sessions.append(session)
        for hook in self.login_hooks:
            hook(target_iqn, socket.local_port)
        return session
