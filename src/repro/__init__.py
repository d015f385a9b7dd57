"""repro — reproduction of "A First Look into Long-lived BGP Zombies" (IMC 2025).

The package is organised bottom-up:

* :mod:`repro.net`, :mod:`repro.bgp` — protocol primitives.
* :mod:`repro.mrt`, :mod:`repro.ris`, :mod:`repro.bgpstream` — the RIPE RIS
  raw-data substrate (binary MRT archives plus a pybgpstream-style reader).
* :mod:`repro.topology`, :mod:`repro.simulator` — a synthetic AS-level
  Internet with BGP propagation and zombie fault injection.
* :mod:`repro.beacons` — the RIS beacon schedule and the paper's new
  beaconing methodology (prefix clocks, recycling).
* :mod:`repro.core` — the paper's contribution: revised zombie detection
  (state reconstruction, double-count elimination, noisy-peer filtering),
  lifespan tracking, resurrection detection, root-cause inference, and
  the legacy (previous-study) baseline.
* :mod:`repro.analysis`, :mod:`repro.experiments` — statistics and the
  table/figure builders of the evaluation.

Extensions implementing the paper's §6 / future work:

* :mod:`repro.dataplane` — FIBs and packet walks (the Fig. 1 loop).
* :mod:`repro.observatory` — live detection: the ingest feeds the §3.1
  and §5.1 cores one record at a time and writes their verdicts to an
  event store served over HTTP/SSE.
* :mod:`repro.routeviews` — RouteViews archives and merged feeds.
* :mod:`repro.core.wild` — zombie detection without beacons.
* :mod:`repro.beacons.ipv4_clock` / :mod:`repro.beacons.service` — the
  compact IPv4 clock and the long-term beacon service.
* :mod:`repro.cli` — ``python -m repro {report,campaign,replication,detect}``.
"""

__version__ = "1.0.0"

from repro.net import Prefix

__all__ = ["Prefix", "__version__"]
