"""Centralized SDN controller.

StorM's forwarding service: one controller knows every virtual switch
in the instance network and installs/removes flow rules on them (via
per-host monitors in the paper; direct method calls here — the
control-plane latency is irrelevant to the evaluated data path).
Rules are tagged with cookies so a whole steering chain can be torn
down atomically when a tenant removes a middle-box.

Cookies form *families*: ``storm:vm1:vol1`` owns every derived cookie
``storm:vm1:vol1#g2`` / ``…#quiesce`` that steering generations and
quiesce rules append.  Family-scoped removal/lookup (the default) is
what lets a crashed controller's recovery and the reconciler sweep a
flow's entire rule state without enumerating generations.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.net.switch import FlowRule, Switch, cookie_in_family, cookie_root


class SdnController:
    """Installs flow rules on registered switches, cookie-scoped.

    The controller's install journal is bucketed by cookie family root
    (like the switch tables themselves), so removing or listing one
    chain's rules costs O(chain) — the journal never has to be rebuilt
    wholesale, no matter how many other chains are live.
    """

    def __init__(self, name: str = "storm-sdn"):
        self.name = name
        self._switches: dict[str, Switch] = {}
        #: install journal: family root -> [(seq, switch, rule), ...]
        self._journal: dict[Optional[str], list[tuple[int, str, FlowRule]]] = {}
        self._journal_seq = 0

    @property
    def installed_rules(self) -> list[tuple[str, FlowRule]]:
        """The journal flattened in install order (compat view)."""
        entries = [e for bucket in self._journal.values() for e in bucket]
        entries.sort(key=lambda e: e[0])
        return [(switch_name, rule) for _seq, switch_name, rule in entries]

    def register_switch(self, switch: Switch) -> None:
        if switch.name in self._switches:
            raise ValueError(f"switch {switch.name!r} already registered")
        self._switches[switch.name] = switch

    def switch(self, name: str) -> Switch:
        try:
            return self._switches[name]
        except KeyError:
            raise KeyError(f"unknown switch {name!r}; registered: {sorted(self._switches)}")

    def install_rule(self, switch_name: str, rule: FlowRule) -> None:
        self.switch(switch_name).flow_table.install(rule)
        seq = self._journal_seq
        self._journal_seq = seq + 1
        self._journal.setdefault(cookie_root(rule.cookie), []).append(
            (seq, switch_name, rule)
        )

    def remove_by_cookie(
        self, cookie: str, switch_name: Optional[str] = None, family: bool = True
    ) -> int:
        """Remove all rules tagged ``cookie`` (optionally on one switch).

        ``family=True`` (default) also removes derived cookies
        (``cookie#…``); ``family=False`` matches exactly — used to
        retire a single steering generation.
        """
        removed = 0
        # Sweep every switch table, not just the journaled ones — the
        # journal can drift from table truth (the reconciler's whole
        # premise); a per-table miss is an O(1) bucket lookup anyway.
        targets = [self.switch(switch_name)] if switch_name else list(self._switches.values())
        for switch in targets:
            removed += switch.flow_table.remove_by_cookie(cookie, family=family)
        root = cookie_root(cookie)
        bucket = self._journal.get(root)
        if bucket:
            kept = [
                entry
                for entry in bucket
                if not (
                    cookie_in_family(entry[2].cookie, cookie, family)
                    and (switch_name is None or entry[1] == switch_name)
                )
            ]
            if kept:
                self._journal[root] = kept
            else:
                del self._journal[root]
        return removed

    def rules_for_cookie(self, cookie: str, family: bool = True) -> list[tuple[str, FlowRule]]:
        bucket = self._journal.get(cookie_root(cookie), [])
        return [
            (switch_name, rule)
            for _seq, switch_name, rule in bucket
            if cookie_in_family(rule.cookie, cookie, family)
        ]

    def iter_rules(self) -> Iterator[tuple[str, FlowRule]]:
        """Every rule actually installed in the switch tables — the
        ground truth the reconciler audits (``installed_rules`` is only
        the controller's journal and can drift from it)."""
        for name, switch in self._switches.items():
            for rule in switch.flow_table.rules:
                yield name, rule
