"""Comparison baselines: unscreened PCT and static (non-regenerating) replication."""

from .plain_pct import PlainPCT
from .static_replication import fuse_static_replication

__all__ = ["PlainPCT", "fuse_static_replication"]
