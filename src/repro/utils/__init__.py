"""Shared utilities below every package: time handling
(:mod:`~repro.utils.timeutil`), the one retry backoff schedule
(:mod:`~repro.utils.backoff`) and the one asyncio HTTP server
(:mod:`~repro.utils.asynchttp`); the last two are imported where used."""

from repro.utils import timeutil

__all__ = ["timeutil"]
