"""Tenant-defined access control middle-box.

The paper's introduction lists *access control* first among the
security services tenants must otherwise beg from the provider.  This
service enforces tenant rules on the wire: block-range rules (raw
volumes) and path rules (via the semantics engine's live view), with
default-allow or default-deny policies.  Denied SCSI commands are
answered directly by the middle-box with an error response — the
request never reaches the storage server, and a compromised VM cannot
bypass it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.middlebox import StorageService
from repro.core.semantics import SemanticsEngine
from repro.fs.view import dump_layout
from repro.iscsi.pdu import ScsiCommandPdu, ScsiResponsePdu


@dataclass
class AccessRule:
    """Allow/deny for an (operation, target) pair.

    ``target`` is either a byte range ``(start, end)`` on the volume or
    a path prefix string (requires the filesystem view).  ``ops`` is a
    subset of {"read", "write"}.
    """

    action: str  # "allow" | "deny"
    ops: frozenset = frozenset({"read", "write"})
    byte_range: Optional[tuple[int, int]] = None
    path_prefix: Optional[str] = None

    def __post_init__(self):
        if self.action not in ("allow", "deny"):
            raise ValueError(f"action must be allow/deny, got {self.action!r}")
        if (self.byte_range is None) == (self.path_prefix is None):
            raise ValueError("rule needs exactly one of byte_range or path_prefix")
        if not self.ops <= {"read", "write"}:
            raise ValueError(f"bad ops {self.ops!r}")


@dataclass
class AccessDecision:
    when: float
    op: str
    offset: int
    length: int
    allowed: bool
    rule: Optional[AccessRule] = None
    paths: list[str] = field(default_factory=list)


class AccessControlService(StorageService):
    """First-match rule evaluation over block and path targets."""

    name = "access-control"
    cpu_per_byte = 0.3e-9
    requires_full_pdu = True  # must be able to drop/deny whole writes

    def __init__(self, default_allow: bool = True, mount_point: str = ""):
        super().__init__()
        self.default_allow = default_allow
        self.mount_point = mount_point
        self.rules: list[AccessRule] = []
        self.decisions: list[AccessDecision] = []
        self.denied = 0
        self.engine: Optional[SemanticsEngine] = None

    # -- policy interface ----------------------------------------------

    def deny(self, ops=("read", "write"), byte_range=None, path_prefix=None) -> AccessRule:
        rule = AccessRule("deny", frozenset(ops), byte_range, path_prefix)
        self.rules.append(rule)
        return rule

    def allow(self, ops=("read", "write"), byte_range=None, path_prefix=None) -> AccessRule:
        rule = AccessRule("allow", frozenset(ops), byte_range, path_prefix)
        self.rules.append(rule)
        return rule

    # -- platform hook ----------------------------------------------------

    def on_volume_attached(self, volume, flow) -> None:
        if self.engine is not None:
            return
        try:
            view = dump_layout(volume, mount_point=self.mount_point)
        except ValueError:
            # raw (unformatted) volume: byte-range rules still apply,
            # path rules simply never match
            return
        self.engine = SemanticsEngine(view)

    # -- enforcement ---------------------------------------------------------

    def _paths_touched(self, command: ScsiCommandPdu) -> list[str]:
        if self.engine is None:
            return []
        records = self.engine.observe(
            command.op,
            command.offset,
            command.length,
            command.data if command.op == "write" else None,
            when=self.middlebox.sim.now if self.middlebox else 0.0,
        )
        return [r.description for r in records]

    def _match(self, command: ScsiCommandPdu, paths: list[str]) -> Optional[AccessRule]:
        start, end = command.offset, command.offset + command.length
        for rule in self.rules:
            if command.op not in rule.ops:
                continue
            if rule.byte_range is not None:
                rule_start, rule_end = rule.byte_range
                if start < rule_end and end > rule_start:
                    return rule
            elif rule.path_prefix is not None:
                if any(p.startswith(rule.path_prefix) for p in paths):
                    return rule
        return None

    def process(self, pdu, direction: str, ctx) -> None:
        self.pdus_processed += 1
        if direction != "upstream" or not isinstance(pdu, ScsiCommandPdu):
            ctx.forward(pdu)
            return
        paths = self._paths_touched(pdu)
        rule = self._match(pdu, paths)
        allowed = rule.action == "allow" if rule is not None else self.default_allow
        when = self.middlebox.sim.now if self.middlebox else 0.0
        self.decisions.append(
            AccessDecision(when, pdu.op, pdu.offset, pdu.length, allowed, rule, paths)
        )
        if allowed:
            ctx.forward(pdu)
            return
        self.denied += 1
        ctx.reply(ScsiResponsePdu(pdu.task_tag, "error"))
