"""Shared builders for compact test airspaces and flights: the self-check's
own tiny-instance builders, so tests and the oracle suite build alike."""
from __future__ import annotations

from faircoplan.selfcheck import blocked, make_grid, make_request, rid

__all__ = ["blocked", "make_grid", "make_request", "rid"]
