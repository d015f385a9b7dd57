"""RouteViews archive substrate (paper §6 future work).

The paper excludes RouteViews "due to limited resources,
acknowledging the potential omission of zombie routes", and lists
combining RIS with RouteViews as future work.  This module makes that
combination possible with layout facts alone — all listing, binning,
merging and decoding is :mod:`repro.ris.archive`'s:

* the real on-disk layout differs from RIS:
  ``<root>/<collector>/bgpdata/<YYYY.MM>/UPDATES/updates.<YYYYMMDD>.<HHMM>.bz2``
  with 15-minute bins, and ``RIBS/rib.<YYYYMMDD>.<HHMM>.bz2`` every two
  hours (same MRT payloads, bzip2 instead of gzip);
* :class:`RouteViewsWriter` / :class:`RouteViewsArchive` are
  :class:`repro.ris.ArchiveWriter` / :class:`repro.ris.Archive` reading
  that layout, so filter push-down, the decoded-file cache and error
  policies apply unchanged, and
* :func:`merged_update_stream` interleaves records from both platforms
  in one time-ordered stream — the detector runs over the union unchanged.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.bgp.messages import Record, merge_records
from repro.ris.archive import Archive, ArchiveWriter, Layout

__all__ = ["RouteViewsArchive", "RouteViewsWriter", "merged_update_stream",
           "UPDATE_BIN_SECONDS", "RIB_DUMP_SECONDS", "DEFAULT_COLLECTORS"]

UPDATE_BIN_SECONDS = 15 * 60
RIB_DUMP_SECONDS = 2 * 3600

#: A few real RouteViews collector names.
DEFAULT_COLLECTORS: tuple[str, ...] = (
    "route-views2", "route-views3", "route-views4", "route-views6",
    "route-views.amsix", "route-views.linx", "route-views.sydney",
)

#: A collector is any directory holding ``bgpdata``.
ROUTEVIEWS_LAYOUT = Layout(
    UPDATE_BIN_SECONDS, "*/bgpdata",
    "{collector}/bgpdata/{month}/UPDATES/updates.{stamp}.bz2",
    "{collector}/bgpdata/{month}/RIBS/rib.{stamp}.bz2")


class RouteViewsWriter(ArchiveWriter):
    """Write records and RIB dumps into a RouteViews-layout archive."""

    layout = ROUTEVIEWS_LAYOUT


class RouteViewsArchive(Archive):
    """Read-side of a RouteViews-layout archive."""

    layout = ROUTEVIEWS_LAYOUT


def merged_update_stream(start: int, end: int,
                         ris_archive: Optional[Archive] = None,
                         routeviews_archive: Optional[Archive] = None,
                         ) -> Iterator[Record]:
    """Interleave RIS and RouteViews records in overall time order —
    the §6 "combined platforms" detector input."""
    return merge_records(
        archive.iter_updates(start, end)
        for archive in (ris_archive, routeviews_archive)
        if archive is not None)
