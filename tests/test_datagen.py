"""Synthetic mixtures and check-in ingestion."""

import gzip
from datetime import date, timezone

import numpy as np
import pytest

from emdheat.datagen import (
    US_BBOX,
    BBox,
    CheckinRecord,
    MixtureSpec,
    build_cells,
    filter_date_range,
    open_maybe_gzip,
    parse_checkins,
    random_mixture_spec,
    read_dataset,
    synth_users,
    write_dataset,
)
from emdheat.grid import SparseDist

from helpers import gp


def test_parse_single_line():
    records, skipped = parse_checkins(["u1\t2010-01-15T08:00:00Z\t30.24\t-97.79\tL1"])
    assert skipped == 0
    rec = records[0]
    assert rec.user_id == "u1"
    assert rec.lat == pytest.approx(30.24)
    assert rec.lon == pytest.approx(-97.79)
    assert rec.location_id == "L1"
    assert rec.timestamp.tzinfo == timezone.utc
    assert rec.timestamp.year == 2010


def test_parse_optional_location_and_blank_lines():
    records, skipped = parse_checkins(
        ["u2\t2011-02-03T10:00:00\t40.0\t-74.0", "", "\n"]
    )
    assert skipped == 0
    assert len(records) == 1
    assert records[0].location_id is None


def test_parse_skips_malformed_lines():
    lines = [
        "u1\t2010-01-15T08:00:00Z\t95.0\t-97.79\tL1",  # latitude out of range
        "u1\t2010-01-15T08:00:00Z\t30.24\t-200.0\tL1",  # longitude out of range
        "u1\tnot-a-time\t30.24\t-97.79\tL1",
        "u1\t2010-01-15T08:00:00Z\tthirty\t-97.79\tL1",
        "u1\t2010-01-15T08:00:00Z\t30.24",  # too few fields
        "a\tb\tc\td\te\tf",  # too many fields
        "u9\t2010-01-15T08:00:00Z\t30.24\t-97.79",
    ]
    records, skipped = parse_checkins(lines)
    assert skipped == 6
    assert [r.user_id for r in records] == ["u9"]


def test_filter_date_range_inclusive():
    records, _ = parse_checkins(
        [
            "u1\t2010-01-15T08:00:00Z\t30.0\t-97.0",
            "u2\t2010-01-16T23:59:00Z\t30.0\t-97.0",
            "u3\t2010-01-17T00:00:00Z\t30.0\t-97.0",
        ]
    )
    kept = filter_date_range(records, start=date(2010, 1, 16), end=date(2010, 1, 16))
    assert [r.user_id for r in kept] == ["u2"]
    assert len(filter_date_range(records, start=date(2010, 1, 15))) == 3
    assert len(filter_date_range(records, end=date(2010, 1, 15))) == 1


def test_us_bbox_bounds():
    assert US_BBOX == BBox(-135.0, -60.0, 0.0, 50.0)


def city_lines():
    lines = []
    # three clusters, sizes 50 > 30 > 20, each inside one coarse cell
    cities = [(-97.70, 30.25, 50), (-122.40, 37.75, 30), (-74.10, 40.70, 20)]
    rng = np.random.default_rng(90)
    uid = 0
    for lon, lat, count in cities:
        for _ in range(count):
            jlon = lon + rng.uniform(-0.01, 0.01)
            jlat = lat + rng.uniform(-0.01, 0.01)
            lines.append(f"u{uid}\t2010-05-01T12:00:00Z\t{jlat:.6f}\t{jlon:.6f}")
            uid += 1
    # background singletons scattered over other cells
    for k in range(5):
        lines.append(f"bg{k}\t2010-05-01T12:00:00Z\t{10.0 + k}\t{-110.0 + k}")
    return lines


def test_build_cells_ranks_cities_by_activity():
    records, skipped = parse_checkins(city_lines())
    assert skipped == 0
    cells = build_cells(records, resolution=16, top_cells=3, min_users=25)
    assert [c.rank for c in cells] == [0, 1, 2]
    assert [c.checkin_count for c in cells] == [50, 30, 20]
    assert [c.meets_min_users for c in cells] == [True, True, False]
    top = cells[0]
    assert top.bounds.lon_min <= -97.70 <= top.bounds.lon_max
    assert top.bounds.lat_min <= 30.25 <= top.bounds.lat_max
    for cell in cells:
        assert cell.n_users == cell.checkin_count  # one check-in per user here
        for dist in cell.users.values():
            assert dist.total_mass == pytest.approx(1.0)
            assert dist.resolution == 16


def test_build_cells_excludes_bbox_boundary():
    lines = [
        "e1\t2010-05-01T12:00:00Z\t25.0\t-135.0",  # on the western edge
        "e2\t2010-05-01T12:00:00Z\t0.0\t-100.0",  # on the southern edge
        "ok\t2010-05-01T12:00:00Z\t25.0\t-100.0",
    ]
    records, _ = parse_checkins(lines)
    cells = build_cells(records, resolution=8, top_cells=5, min_users=1)
    assert sum(c.checkin_count for c in cells) == 1


def test_build_cells_repeat_user_aggregates():
    lines = [
        "u1\t2010-05-01T12:00:00Z\t30.250\t-97.700",
        "u1\t2010-05-01T13:00:00Z\t30.250\t-97.700",
        "u1\t2010-05-01T14:00:00Z\t30.300\t-97.600",
    ]
    records, _ = parse_checkins(lines)
    cells = build_cells(records, resolution=4, top_cells=1, min_users=1)
    dist = cells[0].users["u1"]
    assert dist.total_mass == pytest.approx(1.0)
    assert max(dist.entries.values()) == pytest.approx(2 / 3)


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(np.zeros((0, 2)), np.zeros((0, 2, 2)), 1, 1, 8)
    with pytest.raises(ValueError):
        MixtureSpec(np.zeros((2, 2)), np.zeros((3, 2, 2)), 1, 1, 8)
    with pytest.raises(ValueError):
        MixtureSpec(np.zeros((1, 2)) + 0.5, np.eye(2)[None] * 1e-3, 0, 1, 8)
    bad_cov = MixtureSpec(
        np.zeros((1, 2)) + 0.5, -np.eye(2)[None], 1, 1, 8
    )
    with pytest.raises(ValueError):
        synth_users(bad_cov)


def test_synth_users_shapes_and_mass():
    spec = random_mixture_spec(5, 12, 40, 16, seed=1)
    users, sparsity = synth_users(spec)
    assert len(users) == 12
    assert 0.0 < sparsity <= 1.0
    for p in users:
        assert p.resolution == 16
        assert p.total_mass == pytest.approx(1.0)
        assert all(v > 0 for v in p.entries.values())


def test_synth_users_deterministic():
    spec = random_mixture_spec(5, 6, 30, 16, seed=2)
    u1, s1 = synth_users(spec)
    u2, s2 = synth_users(spec)
    assert s1 == s2
    assert all(a.entries == b.entries for a, b in zip(u1, u2))


def test_degenerate_blob_is_maximally_sparse():
    # one near-point component: all samples land in the cells touching it
    spec = MixtureSpec(
        np.array([[0.5, 0.5]]),
        np.eye(2)[None] * 1e-10,
        samples_per_user=50,
        n_users=20,
        resolution=16,
        seed=3,
    )
    _, sparsity = synth_users(spec)
    assert sparsity <= 4 / 16**2


def test_more_components_cover_more_cells():
    wins = 0
    for seed in range(10):
        _, few = synth_users(random_mixture_spec(20, 50, 50, 64, seed=seed))
        _, many = synth_users(random_mixture_spec(80, 50, 50, 64, seed=seed))
        wins += many > few
    assert wins >= 9


def test_dataset_round_trip(tmp_path):
    users = {
        "alice": SparseDist(8, {gp(1, 2, 8): 0.25, gp(3, 3, 8): 0.75}),
        "bob": SparseDist(8, {gp(0, 0, 8): 1.0}),
    }
    path = tmp_path / "cell.csv"
    write_dataset(path, users, 8, manifest_extra={"note": "fixture"})
    back, manifest = read_dataset(path)
    assert manifest["resolution"] == 8
    assert manifest["n_users"] == 2
    assert manifest["note"] == "fixture"
    assert back.keys() == users.keys()
    for uid in users:
        assert back[uid].entries == users[uid].entries


@pytest.mark.parametrize("name", ["users.jsonl.gz", "users.json", "users.csv.gz", "users"])
def test_dataset_io_rejects_a_non_csv_name(tmp_path, name):
    users = {"alice": SparseDist(8, {gp(1, 2, 8): 1.0})}
    with pytest.raises(ValueError, match=r"\.csv"):
        write_dataset(tmp_path / name, users, 8)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match=r"\.csv"):
        read_dataset(tmp_path / name)


def test_read_dataset_rejects_foreign_header(tmp_path):
    path = tmp_path / "cell.csv"
    path.write_text("a,b,c,d\n")
    (tmp_path / "cell.json").write_text('{"resolution": 8, "n_users": 0}\n')
    with pytest.raises(ValueError):
        read_dataset(path)


def test_open_maybe_gzip(tmp_path):
    plain = tmp_path / "log.tsv"
    plain.write_text("hello\n")
    with open_maybe_gzip(plain) as f:
        assert f.read() == "hello\n"
    zipped = tmp_path / "log.tsv.gz"
    with gzip.open(zipped, "wt") as f:
        f.write("hello\n")
    with open_maybe_gzip(zipped) as f:
        assert f.read() == "hello\n"
