"""Registry of annotation schemes (contribution semantics).

Perm computes provenance by rewriting marked query nodes into ordinary
queries over the same data model.  The traversal that does so
(``repro.core.rewriter``) is one; *what* it carries is an annotation
scheme, selected in SQL with ``SELECT PROVENANCE (<name>) ...``:

* ``witness`` (``repro.core.witness``) -- the paper's witness lists: every
  result tuple is paired with its contributing base tuples, one column
  block per base relation reference.  The default of a bare
  ``SELECT PROVENANCE``.
* ``polynomial`` (``repro.semiring.rewriter``) -- every result tuple
  carries one ``N[X]`` provenance polynomial.

An entry is the scheme class itself (``name``, ``description`` and the
algebra the traversal calls; see ``AnnotationScheme``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import RewriteError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.rewriter import AnnotationScheme

DEFAULT_STRATEGY = "witness"

_SCHEMES: dict[str, type["AnnotationScheme"]] = {}


def register_rewrite_strategy(
    scheme: type["AnnotationScheme"], replace: bool = False
) -> type["AnnotationScheme"]:
    key = scheme.name.lower()
    if key in _SCHEMES and not replace:
        raise ValueError(f"rewrite strategy {scheme.name!r} is already registered")
    _SCHEMES[key] = scheme
    return scheme


def get_rewrite_strategy(name: str | None) -> type["AnnotationScheme"]:
    """Look up a scheme by name (None = the default witness semantics)."""
    _ensure_builtin_strategies()
    try:
        return _SCHEMES[(name or DEFAULT_STRATEGY).lower()]
    except KeyError:
        known = ", ".join(sorted(_SCHEMES))
        raise RewriteError(
            f"unknown provenance semantics {name!r} (available: {known})"
        ) from None


def rewrite_strategy_names() -> list[str]:
    _ensure_builtin_strategies()
    return sorted(_SCHEMES)


def _ensure_builtin_strategies() -> None:
    """Import the built-in scheme modules so they self-register."""
    import repro.core.witness  # noqa: F401  (registers "witness")
    import repro.semiring.rewriter  # noqa: F401  (registers "polynomial")
