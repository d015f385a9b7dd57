"""MRT (RFC 6396) binary format: BGP4MP updates and TABLE_DUMP_V2 RIBs."""

from repro.mrt.bgp4mp import (
    RecordDecoder,
    decode_bgp4mp,
    decode_mrt_header,
    encode_mrt_record,
    encode_state_record,
    encode_update_record,
)
from repro.mrt.files import (
    MRTDecodeError,
    read_rib_file,
    read_updates_file,
    write_updates_file,
)
from repro.mrt.resilient import (
    DecodeStats,
    ErrorPolicy,
    QuarantineWriter,
    ResilientReader,
    plausible_header,
    quarantine_path,
    read_quarantine,
)
from repro.mrt.tabledump import (
    RibDump,
    RibEntry,
    RibPeer,
    decode_rib_dump,
    encode_rib_dump,
)

__all__ = [
    "decode_bgp4mp",
    "decode_mrt_header",
    "encode_mrt_record",
    "encode_state_record",
    "encode_update_record",
    "RecordDecoder",
    "MRTDecodeError",
    "read_rib_file",
    "read_updates_file",
    "write_updates_file",
    "DecodeStats",
    "ErrorPolicy",
    "QuarantineWriter",
    "ResilientReader",
    "plausible_header",
    "quarantine_path",
    "read_quarantine",
    "RibDump",
    "RibEntry",
    "RibPeer",
    "decode_rib_dump",
    "encode_rib_dump",
]
