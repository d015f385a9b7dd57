"""Generated inputs: the same seed gives the same bytes and the same
hash; the read mix is held in exact proportion."""

from collections import Counter

from worlds import (MIX_BLOCK, MIX_WEIGHTS, QUICK_STORE, QUICK_WORLD,
                    build_store, build_world, combine_hashes, request_kind,
                    tree_digest, url_schedule, write_archive)


def _archive_digest(seed, root):
    world = build_world(seed, QUICK_WORLD)
    write_archive(world, root)
    return tree_digest(root, suffixes=(".gz",))[0], len(world.records)


def test_same_seed_same_archive_bytes(tmp_path):
    first, records = _archive_digest(11, tmp_path / "a")
    again, _ = _archive_digest(11, tmp_path / "b")
    other, _ = _archive_digest(12, tmp_path / "c")
    assert records > 0
    assert first == again
    assert first != other


def test_same_seed_same_store_and_schedule(tmp_path):
    one = build_store(3, tmp_path / "one", QUICK_STORE)
    two = build_store(3, tmp_path / "two", QUICK_STORE)
    other = build_store(4, tmp_path / "other", QUICK_STORE)
    assert one.digest == two.digest != other.digest
    assert one.events == QUICK_STORE.events or one.events \
        == QUICK_STORE.events + 1  # an outbreak+forensics pair may overshoot
    schedule, digest = url_schedule(3, one)
    assert url_schedule(3, two) == (schedule, digest)
    assert url_schedule(4, one)[1] != digest
    hashes = {"archive": "a", "store": one.digest, "schedule": digest}
    assert combine_hashes(hashes) == combine_hashes(dict(reversed(
        list(hashes.items()))))


def test_every_block_holds_the_mix_in_exact_proportion(tmp_path):
    info = build_store(5, tmp_path / "store", QUICK_STORE)
    schedule, _ = url_schedule(5, info)
    assert len(schedule) % MIX_BLOCK == 0
    for start in range(0, len(schedule), MIX_BLOCK):
        block = schedule[start:start + MIX_BLOCK]
        kinds = Counter(request_kind(target) for target, _ in block)
        # 19 fresh requests in the mix's proportions, plus one repeat of
        # whatever came before it (possibly the previous block's last).
        before = schedule[max(0, start - 1):start + MIX_BLOCK - 1]
        repeats = sum(1 for (target, cond), (earlier, _) in zip(
            block[1 if start == 0 else 0:], before)
            if target == earlier and cond)
        assert repeats >= 1
        assert sum(kinds.values()) == MIX_BLOCK
        for kind, weight in MIX_WEIGHTS.items():
            assert kinds[kind] in (round(weight * (MIX_BLOCK - 1)),
                                   round(weight * (MIX_BLOCK - 1)) + 1)
        assert sum(1 for _, cond in block if cond) == 7  # 6 + the repeat
