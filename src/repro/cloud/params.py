"""Calibration constants for the simulated testbed.

One place for every physical constant, calibrated against the paper's
hardware (two quad-core Xeons, 32 GB RAM, two 1 GbE NICs per host,
1 TB SATA disk on the storage node).  Benchmarks assert *shapes*
(orderings, ratios), which are robust to these exact values.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CloudParams:
    # -- physical links (1 GbE) ---------------------------------------
    link_bandwidth: float = 125_000_000.0  # bytes/s
    link_latency: float = 12e-6
    switch_delay: float = 3e-6

    # -- VM virtual interfaces (virtio): the single-threaded copy path
    # the paper blames for intra-host transfer cost -------------------
    vm_iface_bandwidth: float = 300_000_000.0
    vm_iface_latency: float = 8e-6
    vm_iface_per_packet: float = 4e-6

    # -- TCP -----------------------------------------------------------
    mss: int = 4096
    tcp_window: int = 49152
    #: retransmission timeout and the consecutive timeouts after which
    #: a connection is declared dead (repro.net.tcp)
    tcp_rto: float = 0.05
    tcp_max_retransmits: int = 8

    # -- iSCSI session re-login ----------------------------------------
    #: attempts (same source 4-tuple) before pending commands fail, and
    #: the first backoff, doubled per attempt
    iscsi_max_relogins: int = 5
    iscsi_relogin_backoff: float = 0.05

    # -- IP forwarding software paths ----------------------------------
    gateway_forward_delay: float = 6e-6
    middlebox_forward_delay: float = 8e-6
    #: per-segment kernel→user copy cost paid by the passive relay; one
    #: 4 KiB simulated segment stands in for ~3 MTU-sized real packets,
    #: so this bundles ~3 syscall+copy round trips
    passive_copy_cost: float = 60e-6

    # -- storage node ---------------------------------------------------
    disk_capacity: int = 1_073_741_824  # 1 GiB carved per scenario (sim-scale)
    disk_bandwidth: float = 150_000_000.0
    disk_access_latency: float = 150e-6
    #: random-access penalty of the paper's SATA spindle — dominates
    #: small random I/O latency, exactly as in the testbed
    disk_seek_penalty: float = 5e-3
    disk_queue_depth: int = 2

    # -- CPU model -------------------------------------------------------
    host_cores: int = 8
    vm_default_vcpus: int = 2
    #: CPU seconds charged per byte by software encryption (AES-NI-less
    #: dm-crypt ballpark on the paper's Xeons, kernel crypto overhead
    #: included).
    aes_cpu_per_byte: float = 9e-9
    #: CPU per byte for the light-weight stream cipher of §V-A.
    stream_cipher_cpu_per_byte: float = 1.5e-9
    #: extra tenant-VM CPU burned per byte when dm-crypt runs in-guest
    #: (spinlock waste while flushing, §V-B2).
    dmcrypt_spinlock_per_byte: float = 5e-9
    #: application-side CPU per I/O request and per byte (FTP/Fio paths,
    #: including the guest TCP stack and copies)
    app_cpu_per_io: float = 10e-6
    app_cpu_per_byte: float = 4e-9

    #: cores the storage target's service threads effectively use
    storage_cpu_cores: int = 2

    # -- replicated control plane (repro.core.ha) -------------------------
    #: management-network links between controller replicas.  Slightly
    #: slower than the data fabric: the paper's testbed runs control
    #: traffic over the shared 1 GbE management ports.
    control_link_bandwidth: float = 125_000_000.0
    control_link_latency: float = 25e-6

    # -- end-to-end integrity (repro.integrity) ---------------------------
    #: stamp every data PDU with a keyed MAC + traversal proof and
    #: verify at the endpoints.  Off by default: none of the machinery
    #: is constructed and runs are bit-identical to an integrity-less
    #: build (tests/determinism/pinned.json).
    integrity: bool = False
    #: SCSI-level retries of a verified-corrupt command before the
    #: session fails it with IntegrityError
    integrity_max_retries: int = 2
    #: receive-side sequence window for replay/reorder classification
    integrity_replay_window: int = 4096
    #: detections per flow within ``integrity_trip_window`` seconds that
    #: trip the tamper breaker (the Reconciler loop then fails the flow closed)
    integrity_trip_threshold: int = 3
    integrity_trip_window: float = 1.0
    #: how long a tripped flow stays quiesced after the last detection
    integrity_trip_cooldown: float = 2.0

    # -- retired switches --------------------------------------------------
    #: Accepted and ignored: reliable TCP, iSCSI session re-login and
    #: the detach saga's ``evict-state`` step are always on.  The fields
    #: stay only because ``benchmarks/e2e/workloads.py`` passes them by
    #: keyword; they go when that file stops.
    tcp_reliable: bool = True
    iscsi_session_recovery: bool = True
    evict_detached: bool = True

    # -- express fast path ------------------------------------------------
    #: simulate established flows analytically instead of per packet
    #: (repro.net.express).  Off by default: packet mode is the exact
    #: reference; express mode reproduces its application-level results
    #: bit-for-bit at a fraction of the event count.
    express: bool = False

    # -- subnets ----------------------------------------------------------
    storage_subnet: str = "10.0.0.0/24"
    tenant_subnet_template: str = "172.16.{tenant}.0/24"

    def tenant_subnet(self, tenant_index: int) -> str:
        return self.tenant_subnet_template.format(tenant=tenant_index)
