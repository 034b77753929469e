"""Sysbench-style OLTP against a MySQL-like server VM (paper §V-B3).

Reproduces the Figure 12 topology: one server VM owns the database
volume (attached through the replication middle-box); several client
VMs run request threads against it over the instance network.  Each
"complex mode" transaction mixes random page reads and read-modify-
write updates.  Completions land in a per-second
:class:`~repro.workloads.stats.Timeline` — the Figure 13 plot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.fs.layout import BLOCK_SIZE
from repro.net.tcp import EOF, RESET, TcpListener, TcpSocket
from repro.sim import SeededRNG, Simulator
from repro.workloads.stats import Timeline


@dataclass
class OltpConfig:
    threads_per_client: int = 6
    table_pages: int = 2048
    reads_per_txn: int = 4
    writes_per_txn: int = 1
    seed: int = 11


@dataclass
class _TxnRequest:
    txn_id: int


@dataclass
class _TxnReply:
    txn_id: int
    status: str


class MySqlServer:
    """A page-store database server bound to one VM and one device."""

    PORT = 3306

    def __init__(self, sim: Simulator, vm, device, params, config: OltpConfig):
        self.sim = sim
        self.vm = vm
        self.device = device
        self.params = params
        self.config = config
        self.rng = SeededRNG(config.seed, name="mysql")
        self.listener = TcpListener(sim, vm.stack, vm.ip, self.PORT)
        self.transactions_committed = 0
        self.errors = 0
        sim.process(self._accept_loop(), name=f"mysql:{vm.name}")

    def _accept_loop(self):
        while True:
            sock = yield self.listener.accept()
            self.sim.process(self._serve(sock))

    def _serve(self, sock: TcpSocket):
        while True:
            got = yield sock.recv()
            if got is RESET or got is EOF:
                return
            request, _size = got
            status = yield from self._execute()
            reply = _TxnReply(request.txn_id, status)
            sock.send(reply, 100)

    def _execute(self):
        """One complex-mode transaction: point reads + an update."""
        config = self.config
        rng = self.rng
        try:
            for _ in range(config.reads_per_txn):
                page = rng.randint(0, config.table_pages - 1)
                yield from self.vm.cpu.consume(self.params.app_cpu_per_io)
                yield self.device.read(page * BLOCK_SIZE, BLOCK_SIZE)
            for _ in range(config.writes_per_txn):
                page = rng.randint(0, config.table_pages - 1)
                yield from self.vm.cpu.consume(self.params.app_cpu_per_io)
                yield self.device.read(page * BLOCK_SIZE, BLOCK_SIZE)
                yield self.device.write(page * BLOCK_SIZE, BLOCK_SIZE)
        except Exception:
            self.errors += 1
            return "error"
        self.transactions_committed += 1
        return "ok"


class OltpClient:
    """A Sysbench instance: N request threads from one client VM."""

    def __init__(
        self,
        sim: Simulator,
        vm,
        server_ip: str,
        config: OltpConfig,
        timeline: Timeline,
    ):
        self.sim = sim
        self.vm = vm
        self.server_ip = server_ip
        self.config = config
        self.timeline = timeline
        self.completed = 0
        self._txn_ids = itertools.count(1)

    def run(self, duration: float):
        """Process: hammer the server for ``duration`` seconds."""
        threads = [
            self.sim.process(self._thread(duration), name=f"sysbench:{self.vm.name}:{t}")
            for t in range(self.config.threads_per_client)
        ]
        for thread in threads:
            yield thread
        return self.completed

    def _thread(self, duration: float):
        sock = TcpSocket(
            self.sim, self.vm.stack, self.vm.ip, self.vm.stack.allocate_port()
        )
        yield sock.connect(self.server_ip, MySqlServer.PORT)
        deadline = self.sim.now + duration
        while self.sim.now < deadline:
            sock.send(_TxnRequest(next(self._txn_ids)), 100)
            got = yield sock.recv()
            if got is RESET or got is EOF:
                return
            reply, _size = got
            if reply.status == "ok":
                self.completed += 1
                self.timeline.add(self.sim.now)
        sock.close()
