"""doorlab: a finite verification engine for connected door topologies and
the set equations they solve."""

from .core import Family, parse_family, powerset, restrict_family
from .topology import Topology, space_report, validate_topology
from .classify import FormDescriptor, construct_topology
from .valuations import ExactComplex, SetFunction, ec, satisfies_valuation

__all__ = [
    "Family", "parse_family", "powerset", "restrict_family",
    "Topology", "space_report", "validate_topology",
    "FormDescriptor", "construct_topology",
    "ExactComplex", "SetFunction", "satisfies_valuation", "ec",
]

__version__ = "0.1.0"
