"""Storage-host iSCSI target (tgt-like).

Exports volumes one-IQN-per-volume (the OpenStack/Cinder pattern),
accepts logins, and executes SCSI commands against the backing
volumes.  An optional CPU meter charges the storage host for request
handling — this is where the target-side ~25% CPU of the paper's
Figure 10 comes from.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.blockdev import DiskIOError, Volume
from repro.iscsi.pdu import (
    DataInPdu,
    ISCSI_PORT,
    LoginRequestPdu,
    LoginResponsePdu,
    ScsiCommandPdu,
    ScsiResponsePdu,
    volume_iqn,
)
from repro.net.stack import NetworkStack
from repro.net.tcp import ConnectionReset, EOF, RESET, TcpListener, TcpSocket
from repro.sim import Simulator

#: CPU charged on the storage host per request and per payload byte.
PER_IO_CPU = 20e-6
PER_BYTE_CPU = 5.0e-9


class IscsiTarget:
    """Listens on 3260, serves logins and SCSI commands."""

    def __init__(
        self,
        sim: Simulator,
        stack: NetworkStack,
        ip: str,
        port: int = ISCSI_PORT,
        cpu=None,
        mss: int = 4096,
        window: int = 65536,
        rto: float = 0.05,
        max_retransmits: int = 8,
    ):
        self.sim = sim
        self.stack = stack
        self.ip = ip
        self.port = port
        self.cpu = cpu  # object with .consume(seconds) generator, or None
        self.exports: dict[str, Volume] = {}
        self.listener = TcpListener(
            sim,
            stack,
            ip,
            port,
            mss=mss,
            window=window,
            rto=rto,
            max_retransmits=max_retransmits,
        )
        self.listener.express_label = f"target:{ip}"
        self.io_errors = 0
        #: :class:`repro.integrity.IntegrityLayer` (set by the cloud
        #: controller when ``params.integrity``): commands are verified
        #: before execution — a violation answers "check-integrity"
        #: instead of touching the volume — and Data-In PDUs are
        #: stamped for the return path.  None = zero overhead.
        self.integrity = None
        self.integrity_rejections = 0
        #: observability bus hook (set by ``repro.obs.instrument``);
        #: when non-None each command executes under a child span of the
        #: initiator's context.  None = zero overhead.
        self.obs = None
        #: Called with (initiator_iqn, target_iqn, remote_ip, remote_port)
        #: on every login — target-side half of connection attribution.
        self.login_hooks: list[Callable[[str, str, str, int], None]] = []
        self.commands_served = 0
        sim.process(self._accept_loop(), name=f"iscsi-target:{ip}")

    def export(self, volume: Volume, iqn: Optional[str] = None) -> str:
        iqn = iqn or volume_iqn(volume.name)
        if iqn in self.exports:
            raise ValueError(f"IQN {iqn} already exported")
        volume.iqn = iqn
        # volumes are operator-provisioned resources, bounded by
        # explicit create calls rather than session churn
        # stormlint: ignore[bounded-tenant-registry]
        self.exports[iqn] = volume
        return iqn

    # -- connection handling -------------------------------------------

    def _accept_loop(self):
        while True:
            socket: TcpSocket = yield self.listener.accept()
            self.sim.process(self._serve(socket), name=f"iscsi-conn:{socket.remote_ip}")

    def _serve(self, socket: TcpSocket):
        volume: Optional[Volume] = None
        while True:
            got = yield socket.recv()
            if got is RESET or got is EOF:
                return
            pdu, _size = got
            if isinstance(pdu, LoginRequestPdu):
                volume = self.exports.get(pdu.target_iqn)
                status = "success" if volume is not None else "target-not-found"
                response = LoginResponsePdu(pdu.target_iqn, status)
                socket.send(response, response.wire_size)
                if volume is not None:
                    for hook in self.login_hooks:
                        hook(pdu.initiator_iqn, pdu.target_iqn, socket.remote_ip, socket.remote_port)
                continue
            if isinstance(pdu, ScsiCommandPdu):
                if volume is None:
                    error = ScsiResponsePdu(pdu.task_tag, "error")
                    socket.send(error, error.wire_size)
                    continue
                self.sim.process(self._execute(socket, volume, pdu))

    def _execute(self, socket: TcpSocket, volume: Volume, command: ScsiCommandPdu):
        if self.integrity is not None:
            bad = self.integrity.verify(
                command, volume.iqn, "upstream", where="target"
            )
            if bad is not None:
                # SCSI check condition: the command never touches the
                # volume; the initiator retries it with a fresh stamp
                self.integrity_rejections += 1
                response = ScsiResponsePdu(command.task_tag, "check-integrity")
                response.ctx = command.ctx
                self._respond(socket, response)
                return
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.span(
                "target.execute",
                parent=command.ctx,
                op=command.op,
                length=command.length,
            )
            obs.metrics.counter(f"target.{command.op}", self.ip).inc()
        if self.cpu is not None:
            yield from self.cpu.consume(PER_IO_CPU + PER_BYTE_CPU * command.length)
        self.commands_served += 1
        try:
            if command.op == "write":
                yield from volume.write(command.offset, command.length, command.data)
                response = ScsiResponsePdu(command.task_tag, "good")
                if span is not None:
                    response.ctx = span.context()
                    span.finish("ok")
                self._respond(socket, response)
                return
            data = yield from volume.read(command.offset, command.length)
        except DiskIOError:
            # a medium error becomes a SCSI check condition, not a dead
            # target: the initiator fails that one command
            self.io_errors += 1
            response = ScsiResponsePdu(command.task_tag, "io-error")
            if span is not None:
                response.ctx = span.context()
                span.finish("io-error")
            self._respond(socket, response)
            return
        data_in = DataInPdu(command.task_tag, command.length, data, offset=command.offset)
        if self.integrity is not None:
            self.integrity.stamp(data_in, volume.iqn, "downstream", "target")
        response = ScsiResponsePdu(command.task_tag, "good")
        if span is not None:
            ctx = span.context()
            data_in.ctx = ctx
            response.ctx = ctx
            span.finish("ok")
        self._respond(socket, data_in)
        self._respond(socket, response)

    @staticmethod
    def _respond(socket: TcpSocket, pdu) -> None:
        """Send a reply, tolerating a connection that died mid-command."""
        try:
            socket.send(pdu, pdu.wire_size)
        except ConnectionReset:
            pass
