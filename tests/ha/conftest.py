"""Shared HA chaos environment: the recoverable fault bed with
the replicated control plane on, plus leak/determinism helpers."""

from repro.net.switch import cookie_in_family

from tests.faults.conftest import fault_env

COOKIE = "storm:vm1:vol1"


def ha_env(**kwargs):
    """The recoverable bed with the replicated control plane enabled."""
    return fault_env(ha=True, **kwargs)


def switch_rules(env, cookie=COOKIE):
    return [
        (name, rule)
        for name, rule in env.cloud.sdn.iter_rules()
        if cookie_in_family(rule.cookie, cookie)
    ]


def nat_rules(env, cookie=COOKIE):
    found = []
    for _name, nat in env.cloud.iter_nat_tables():
        found.extend(nat.rules_for_cookie(cookie))
    for pair in env.storm.gateway_pairs.values():
        found.extend(pair.ingress.stack.nat.rules_for_cookie(cookie))
        found.extend(pair.egress.stack.nat.rules_for_cookie(cookie))
    return found


def cluster_signature(env):
    """Everything that must be byte-identical across two runs of the
    same failover scenario: leadership, terms, election count, every
    replica's log position, the saga journals, and the event timeline."""
    cluster = env.storm.ha
    return {
        "now": env.sim.now,
        "leader": cluster.leader_name,
        "term": cluster.term,
        "elections": cluster.elections,
        "roles": {node.name: cluster.role(node.name) for node in cluster.nodes},
        "indexes": {name: log.last_index for name, log in cluster.logs.items()},
        "journals": [
            (saga.op, saga.status, tuple(saga.journal))
            for saga in env.storm.intent_log.sagas
        ],
        "timeline": env.events(),
    }
