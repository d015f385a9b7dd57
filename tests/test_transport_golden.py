"""Wire parity of the archive mirror across server engines.

``GOLDEN`` was captured from the threaded ``http.server`` mirror at the
commit before ``ArchiveServer`` moved onto ``AsyncHTTPTransport``
(``python tests/test_transport_golden.py`` prints the table).  Each row
is ``(status, sorted headers, sha256(body))`` with the hop-by-hop and
engine-identity headers (``Date``, ``Server``, ``Connection``) left
out; everything a mirror client can act on must not move.

The archive is fixed bytes with fixed mtimes — not ``ArchiveWriter``
output — so the checksums do not depend on the zlib build.
"""

import hashlib
import http.client
import json
import os

import pytest

from repro.transport import ArchiveServer

FILE = "/rrc00/2024.06/updates.20240601.0000.gz"
FILE_BYTES = bytes(range(256)) * 5
ETAG = '"' + hashlib.sha256(FILE_BYTES).hexdigest() + '"'
MTIME_NS = 1_717_200_000_000_000_000
IGNORED = {"date", "server", "connection"}

#: name -> (method, target, request headers), in wire order: ``/healthz``
#: goes first because its body counts the requests served so far.
REQUESTS = {
    "healthz": ("GET", "/healthz", {}),
    "index": ("GET", "/index.json", {}),
    "manifest": ("GET", "/rrc00/2024.06/manifest.json", {}),
    "file": ("GET", FILE, {}),
    "file-head": ("HEAD", FILE, {}),
    "file-not-modified": ("GET", FILE,
                          {"If-None-Match": '"deadbeef", ' + ETAG}),
    "range-open": ("GET", FILE, {"Range": "bytes=1000-"}),
    "range-closed": ("GET", FILE, {"Range": "bytes=10-19"}),
    "range-suffix": ("GET", FILE, {"Range": "bytes=-5"}),
    "range-unsatisfiable": ("GET", FILE, {"Range": "bytes=99999-"}),
    "extra": ("GET", "/scenario.json", {}),
    "unsafe-path": ("GET", "/rrc00/2024.06/..%2F..%2Fscenario.json", {}),
    "missing": ("GET", "/rrc00/2024.06/updates.nope.gz", {}),
    "root": ("GET", "/", {}),
}

GOLDEN = {'extra': [200,
                    [['Accept-Ranges', 'bytes'],
                     ['Content-Length', '14'],
                     ['Content-Type', 'application/octet-stream'],
                     ['ETag',
                      '"c3aa9744214caf6eb993d6f88f3f1dda3e4e60d59f712b6463c4ce2c4b00dfa1"']],
                    'c3aa9744214caf6eb993d6f88f3f1dda3e4e60d59f712b6463c4ce2c4b00dfa1'],
          'file': [200,
                   [['Accept-Ranges', 'bytes'],
                    ['Content-Length', '1280'],
                    ['Content-Type', 'application/gzip'],
                    ['ETag',
                     '"d414b085826eb06778483ba35564dc849e643359f69ed9747878ba6e54985bed"']],
                   'd414b085826eb06778483ba35564dc849e643359f69ed9747878ba6e54985bed'],
          'file-head': [200,
                        [['Accept-Ranges', 'bytes'],
                         ['Content-Length', '1280'],
                         ['Content-Type', 'application/gzip'],
                         ['ETag',
                          '"d414b085826eb06778483ba35564dc849e643359f69ed9747878ba6e54985bed"']],
                        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
          'file-not-modified': [304,
                                [['Accept-Ranges', 'bytes'],
                                 ['Content-Length', '0'],
                                 ['Content-Type', 'application/gzip'],
                                 ['ETag',
                                  '"d414b085826eb06778483ba35564dc849e643359f69ed9747878ba6e54985bed"']],
                                'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
          'healthz': [200,
                      [['Content-Length', '55'], ['Content-Type', 'application/json']],
                      '16868fbf6b6bf43f606ec8ae9a5002cc8fecb640b84e81586bc95ee90024d2d4'],
          'index': [200,
                    [['Content-Length', '287'], ['Content-Type', 'application/json']],
                    '3269a68d47e4e7779456ba73cfd4ef178ebfd99f862b14dcd0484f80036b505f'],
          'manifest': [200,
                       [['Content-Length', '456'],
                        ['Content-Type', 'application/json']],
                       '5d0b9be3723fc242d1804ff3ffd40439a7fc74255ca4c1750e4ee96ae92069d9'],
          'missing': [404,
                      [['Content-Length', '61'], ['Content-Type', 'application/json']],
                      '54f2d898015dc42a2455ba5a359914135d2a3528d17b0dcda54a8bd603374e6d'],
          'range-closed': [206,
                           [['Accept-Ranges', 'bytes'],
                            ['Content-Length', '10'],
                            ['Content-Range', 'bytes 10-19/1280'],
                            ['Content-Type', 'application/gzip'],
                            ['ETag',
                             '"d414b085826eb06778483ba35564dc849e643359f69ed9747878ba6e54985bed"']],
                           'c3a3674842d925c4a400b5b98383f894363e98bf1d328bba0dcf44852ae9a0e2'],
          'range-open': [206,
                         [['Accept-Ranges', 'bytes'],
                          ['Content-Length', '280'],
                          ['Content-Range', 'bytes 1000-1279/1280'],
                          ['Content-Type', 'application/gzip'],
                          ['ETag',
                           '"d414b085826eb06778483ba35564dc849e643359f69ed9747878ba6e54985bed"']],
                         '4bbbbdf08531c7c425dd66a1ebb0bc591a75c3844f7aa854ac5a137e7bf5fe87'],
          'range-suffix': [206,
                           [['Accept-Ranges', 'bytes'],
                            ['Content-Length', '5'],
                            ['Content-Range', 'bytes 1275-1279/1280'],
                            ['Content-Type', 'application/gzip'],
                            ['ETag',
                             '"d414b085826eb06778483ba35564dc849e643359f69ed9747878ba6e54985bed"']],
                           '93a2541056fb33566545ab2dec2ef36467ff8ca7ffdc40efbd966b4bfd16128b'],
          'range-unsatisfiable': [416,
                                  [['Accept-Ranges', 'bytes'],
                                   ['Content-Length', '0'],
                                   ['Content-Range', 'bytes */1280'],
                                   ['Content-Type', 'application/gzip'],
                                   ['ETag',
                                    '"d414b085826eb06778483ba35564dc849e643359f69ed9747878ba6e54985bed"']],
                                  'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'],
          'root': [404,
                   [['Content-Length', '32'], ['Content-Type', 'application/json']],
                   '12038b7f60c4fe771ddca5eb05ebb465da11a696df417457078f12c99cdbe7e3'],
          'unsafe-path': [403,
                          [['Content-Length', '29'],
                           ['Content-Type', 'application/json']],
                          '0a22faa8f9359c140fee51f42a54a97e772166d9885f88749cf2e0fa36da47f3']}


def build_archive(root):
    month = root / "rrc00" / "2024.06"
    month.mkdir(parents=True)
    (month / "updates.20240601.0000.gz").write_bytes(FILE_BYTES)
    (month / "updates.20240601.0005.gz").write_bytes(b"\x1f\x8b" + b"z" * 90)
    (root / "scenario.json").write_text(json.dumps({"version": 1}))
    for path in [*month.iterdir(), root / "scenario.json"]:
        os.utime(path, ns=(MTIME_NS, MTIME_NS))
    return root


def capture(server):
    table = {}
    for name, (method, target, headers) in REQUESTS.items():
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            conn.request(method, target, headers=headers)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        kept = sorted([key, value] for key, value in response.getheaders()
                      if key.lower() not in IGNORED)
        table[name] = [response.status, kept,
                       hashlib.sha256(body).hexdigest()]
    return table


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    root = build_archive(tmp_path_factory.mktemp("golden-archive"))
    server = ArchiveServer(root).start()
    try:
        yield capture(server)
    finally:
        server.stop()


@pytest.mark.parametrize("name", REQUESTS)
def test_mirror_wire_matches_the_threaded_server(observed, name):
    assert observed[name] == GOLDEN[name]


if __name__ == "__main__":
    import pprint
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        archive_root = build_archive(Path(tmp) / "archive")
        live = ArchiveServer(archive_root).start()
        try:
            pprint.pprint(capture(live), width=78)
        finally:
            live.stop()
