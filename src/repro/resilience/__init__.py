"""Computational resiliency library.

Implements Section 2 of the paper as an application-independent layer over
the SCP runtime: the coordinator that keeps the replica groups, regenerates
lost replicas with their checkpointed state and logs every recovery
(:mod:`.coordinator`), heartbeat failure detection in virtual time
(:mod:`.detector`), resource-aware placement of regenerated replicas
(:mod:`.resource`), scripted attack campaigns (:mod:`.attack`) and
camouflage through migration (:mod:`.camouflage`).
"""

from .attack import (FAIL_NODE, KILL_REPLICA, KILL_THREAD, AttackEvent,
                     AttackScenario, ScriptedAdversary)
from .camouflage import CamouflagePolicy, MigrationRecord
from .coordinator import (RecoveryEvent, ReplicaGroup, ResilienceCoordinator,
                          protocol_config_for)
from .detector import HeartbeatFailureDetector, SuspicionRecord
from .resource import ResourceManager

__all__ = [
    "FAIL_NODE",
    "KILL_REPLICA",
    "KILL_THREAD",
    "AttackEvent",
    "AttackScenario",
    "ScriptedAdversary",
    "CamouflagePolicy",
    "MigrationRecord",
    "ResilienceCoordinator",
    "RecoveryEvent",
    "ReplicaGroup",
    "protocol_config_for",
    "HeartbeatFailureDetector",
    "SuspicionRecord",
    "ResourceManager",
]
