"""Shared utilities below every package: time handling
(:mod:`~repro.utils.timeutil`) and the one asyncio HTTP server
(:mod:`~repro.utils.asynchttp`, imported where it is subclassed)."""

from repro.utils import timeutil

__all__ = ["timeutil"]
