"""Machine substrate: EC2 instance types, disks, nodes, cluster builders."""

from .builder import Cluster, build_heterogeneous, build_homogeneous
from .disk import Disk
from .instance import (
    INSTANCE_CATALOG,
    LARGE,
    MEDIUM,
    SMALL,
    STORAGE_PRESETS,
    InstanceType,
    instance_by_name,
    with_storage,
)
from .node import Node

__all__ = [
    "Cluster",
    "build_homogeneous",
    "build_heterogeneous",
    "Node",
    "Disk",
    "InstanceType",
    "SMALL",
    "MEDIUM",
    "LARGE",
    "INSTANCE_CATALOG",
    "instance_by_name",
    "STORAGE_PRESETS",
    "with_storage",
]
