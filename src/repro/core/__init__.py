"""The Perm provenance rewriter -- the paper's core contribution.

``traverse_query_tree`` implements the algorithm of paper Fig. 7 over the
query-tree representation of section IV-B, once, for every contribution
semantics (``repro.core.rewriter``); what is carried through it is an
annotation scheme from ``repro.core.registry`` -- the paper's witness
lists (``repro.core.witness``) by default.  ``docs/rewriter.md`` maps the
paper's figures and rules onto the code.
"""

from repro.core.naming import ProvenanceAttribute, ProvenanceNamer
from repro.core.registry import (
    DEFAULT_STRATEGY,
    get_rewrite_strategy,
    register_rewrite_strategy,
    rewrite_strategy_names,
)
from repro.core.rewriter import AnnotationScheme, rewrite_marked_node, traverse_query_tree

__all__ = [
    "ProvenanceAttribute",
    "ProvenanceNamer",
    "AnnotationScheme",
    "rewrite_marked_node",
    "traverse_query_tree",
    "DEFAULT_STRATEGY",
    "get_rewrite_strategy",
    "register_rewrite_strategy",
    "rewrite_strategy_names",
]
