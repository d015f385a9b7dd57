"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.command == "report"
        assert args.days == 6
        assert not args.quick

    def test_campaign_full_flag(self):
        args = build_parser().parse_args(["campaign", "--full"])
        assert args.full

    def test_replication_period_choices(self):
        args = build_parser().parse_args(["replication", "--period", "2018"])
        assert args.period == "2018"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replication", "--period", "1999"])

    def test_detect_args(self):
        args = build_parser().parse_args([
            "detect", "/tmp/archive", "--from-time", "2024-06-04 00:00",
            "--until-time", "2024-06-05 00:00", "--beacons", "zombie-24h",
            "--threshold-minutes", "120", "--no-dedup"])
        assert args.archive == "/tmp/archive"
        assert args.beacons == "zombie-24h"
        assert args.threshold_minutes == 120
        assert args.no_dedup


class TestDetectCommand:
    @pytest.fixture()
    def archive(self, tmp_path):
        """A tiny archive with one stuck beacon slot."""
        from repro.beacons import RecycleApproach, ZombieBeaconSchedule
        from repro.bgp import Announcement, ASPath, PathAttributes, UpdateRecord
        from repro.net import Prefix
        from repro.ris import ArchiveWriter
        from repro.utils.timeutil import ts

        t0 = ts(2024, 6, 5, 9, 30)
        schedule = ZombieBeaconSchedule(RecycleApproach.DAILY)
        prefix = next(schedule.intervals(t0, t0 + 900)).prefix
        attrs = PathAttributes(as_path=ASPath.of(25091, 8298, 210312),
                               next_hop="2001:db8::1")
        writer = ArchiveWriter(tmp_path)
        writer.write_updates("rrc00", [
            UpdateRecord(t0 + 5, "rrc00", "2001:db8::2", 25091,
                         Announcement(prefix, attrs))])
        return tmp_path

    def test_detect_finds_zombie(self, archive, capsys):
        code = main(["detect", str(archive),
                     "--from-time", "2024-06-05 09:00",
                     "--until-time", "2024-06-05 10:00",
                     "--beacons", "zombie-24h"])
        assert code == 0
        out = capsys.readouterr().out
        assert "outbreaks: 1" in out
        assert "2a0d:3dc1:930::/48" in out

    def test_no_dedup_flag_accepted(self, archive, capsys):
        code = main(["detect", str(archive),
                     "--from-time", "2024-06-05 09:00",
                     "--until-time", "2024-06-05 10:00",
                     "--beacons", "zombie-24h", "--no-dedup"])
        assert code == 0
        assert "outbreaks: 1" in capsys.readouterr().out

    def test_no_intervals_is_error(self, archive, capsys):
        code = main(["detect", str(archive),
                     "--from-time", "2030-01-01",
                     "--until-time", "2030-01-01 00:10",
                     "--beacons", "campaign"])
        assert code == 1


class TestReplicationCommand:
    def test_single_period_runs(self, capsys):
        code = main(["replication", "--days", "2", "--period", "2017-mar"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "2017-mar" in out


class TestReportCommand:
    def test_report_is_a_pure_function_of_its_seed(self):
        """Wall-clock timings go to stderr: the report stream of two
        runs is the same text."""
        from repro.reporting import generate

        first, second = io.StringIO(), io.StringIO()
        generate(quick=True, days=2, stream=first)
        generate(quick=True, days=2, stream=second)
        assert first.getvalue() == second.getvalue()
        assert "Table 1" in first.getvalue()
        assert "done in" not in first.getvalue()


class TestErgonomics:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_bad_time_exits_2_with_one_liner(self, tmp_path, capsys):
        code = main(["detect", str(tmp_path),
                     "--from-time", "not-a-time",
                     "--until-time", "2024-06-05"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert err.startswith("repro detect:")

    def test_missing_path_exits_2(self, tmp_path, capsys):
        code = main(["observatory", "serve", str(tmp_path / "nope")])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
