"""RouteViews archive substrate: the second layout of :mod:`repro.ris.archive`."""

from repro.routeviews.archive import (
    DEFAULT_COLLECTORS,
    RIB_DUMP_SECONDS,
    UPDATE_BIN_SECONDS,
    RouteViewsArchive,
    RouteViewsWriter,
)

__all__ = [
    "RouteViewsArchive",
    "RouteViewsWriter",
    "DEFAULT_COLLECTORS",
    "UPDATE_BIN_SECONDS",
    "RIB_DUMP_SECONDS",
]
